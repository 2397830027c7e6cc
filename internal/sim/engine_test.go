package sim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

// ckptConfig builds a medium-availability run with a mix of idle and
// burst epochs and a fresh Hybrid strategy, so a checkpoint carries
// every stateful layer (battery, PSS accounting, predictors, Q-table).
func ckptConfig(t testing.TB) Config {
	t.Helper()
	d := 30 * time.Minute
	lead, tail := 10*time.Minute, 10*time.Minute
	green := cluster.REBatt()
	supply := solar.Synthesize(solar.Med, lead+d+tail, time.Minute, float64(green.PeakGreen()), 42)
	return Config{
		Workload: testProfile,
		Green:    green,
		Strategy: hybrid(t),
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
	}
}

func mustRunAll(t *testing.T, e *Engine) *Result {
	t.Helper()
	for {
		_, ok, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return e.Result()
		}
	}
}

func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Records) != len(got.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if want.Records[i] != got.Records[i] {
			t.Errorf("record %d differs:\nwant %+v\ngot  %+v", i, want.Records[i], got.Records[i])
		}
	}
	if want.MeanNormPerf != got.MeanNormPerf {
		t.Errorf("MeanNormPerf = %v, want %v", got.MeanNormPerf, want.MeanNormPerf)
	}
	if want.Account != got.Account {
		t.Errorf("Account = %+v, want %+v", got.Account, want.Account)
	}
	if want.BatteryCycles != got.BatteryCycles {
		t.Errorf("BatteryCycles = %v, want %v", got.BatteryCycles, want.BatteryCycles)
	}
}

// TestCheckpointRoundTripMidBurst cuts a checkpoint in the middle of a
// burst, sends it through JSON, restores it into a freshly constructed
// Engine, and demands the stitched run be bit-identical to the
// uninterrupted one — records, aggregates and battery wear.
func TestCheckpointRoundTripMidBurst(t *testing.T) {
	ref, err := Run(context.Background(), ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt a second run mid-burst (lead is 2 epochs; stop at 4,
	// two epochs into the burst).
	a, err := New(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const stopAt = 4
	for i := 0; i < stopAt; i++ {
		rec, ok, err := a.Step()
		if err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
		if i == stopAt-1 && !rec.InBurst {
			t.Fatalf("epoch %d not in burst; checkpoint must be cut mid-burst", i)
		}
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh engine (fresh Hybrid, fresh bank) from the
	// JSON bytes alone.
	cp2, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(cp2); err != nil {
		t.Fatal(err)
	}
	if fresh.EpochIndex() != stopAt {
		t.Fatalf("restored epoch index = %d, want %d", fresh.EpochIndex(), stopAt)
	}
	assertSameResult(t, ref, mustRunAll(t, fresh))
}

// TestCheckpointVersionMismatch verifies stale or future checkpoint
// formats are rejected loudly at both decode and restore.
func TestCheckpointVersionMismatch(t *testing.T) {
	e, err := New(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(b, []byte(`"version":5`), []byte(`"version":99`), 1)
	if bytes.Equal(bad, b) {
		t.Fatal("version field not found in encoded checkpoint")
	}
	if _, err := DecodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("decode of version 99 = %v, want version error", err)
	}
	cp.Version = 99
	if err := e.Restore(cp); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("restore of version 99 = %v, want version error", err)
	}
}

// TestCheckpointKnobSpaceMismatch tampers with the persisted Q-table's
// action space: the rl layer pins the knob space, so restoring a
// checkpoint cut from a different action space must fail with a clear
// error instead of silently mis-indexing actions.
func TestCheckpointKnobSpaceMismatch(t *testing.T) {
	e, err := New(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(b, []byte(`"actions":63`), []byte(`"actions":62`), 1)
	if bytes.Equal(bad, b) {
		t.Fatal("action-space field not found in encoded checkpoint")
	}
	cp2, err := DecodeCheckpoint(bad)
	if err != nil {
		t.Fatal(err) // the envelope itself is valid
	}
	fresh, err := New(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.Restore(cp2)
	if err == nil || !strings.Contains(err.Error(), "knob space") {
		t.Errorf("restore with foreign action space = %v, want knob-space error", err)
	}
}

// TestFailedRestoreLeavesNoTrace restores the Hybrid fixture, each
// time broken in one layer, into an engine stepped to another epoch:
// the knob herd fails after the selector, breaker and injector took
// their state, the predictor after the whole rack, the strategy after
// the predictor. Every Restore must fail and leave the engine as it
// was: its own checkpoint unchanged byte for byte, and its run
// finishing like an engine never asked to restore.
func TestFailedRestoreLeavesNoTrace(t *testing.T) {
	fixture, err := os.ReadFile(hybridFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	breaks := map[string]func(cp *Checkpoint){
		"knob herd":      func(cp *Checkpoint) { cp.ClassFleet.Classes[0].Transitions = -1 },
		"load predictor": func(cp *Checkpoint) { cp.LoadPred.Alpha /= 2 },
		"q-table": func(cp *Checkpoint) {
			cp.Strategy = bytes.Replace(cp.Strategy, []byte(`"actions":63`), []byte(`"actions":62`), 1)
		},
		"pending action": func(cp *Checkpoint) {
			cp.Strategy = bytes.Replace(cp.Strategy, []byte(`"action":`), []byte(`"action":6`), 1)
		},
	}
	for name, mutate := range breaks {
		cfg, _ := hybridFixtureConfig(t)
		e := mustNew(t, cfg)
		for i := 0; i < 3; i++ {
			if _, _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		before := encodeEngine(t, e)
		cp, err := DecodeCheckpoint(fixture)
		if err != nil {
			t.Fatal(err)
		}
		mutate(cp)
		if err := e.Restore(cp); err == nil {
			t.Fatalf("%s: broken checkpoint restored", name)
		}
		if after := encodeEngine(t, e); !bytes.Equal(after, before) {
			t.Errorf("%s: failed restore changed the engine's checkpoint", name)
		}
		refCfg, _ := hybridFixtureConfig(t)
		ref := mustNew(t, refCfg)
		for i := 0; i < 3; i++ {
			if _, _, err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		assertSameResult(t, mustRunAll(t, ref), mustRunAll(t, e))
	}
}

// encodeEngine returns the engine's encoded checkpoint.
func encodeEngine(t testing.TB, e *Engine) []byte {
	t.Helper()
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointScheduleMismatch rejects checkpoints cut from a
// different epoch length or supply window.
func TestCheckpointScheduleMismatch(t *testing.T) {
	e, err := New(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	other := ckptConfig(t)
	other.Epoch = 10 * time.Minute
	diffEpoch, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffEpoch.Restore(cp); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Errorf("restore across epoch lengths = %v, want epoch error", err)
	}

	// A checkpoint from a breaker-less run cannot restore into an
	// overdraw-enabled engine.
	od := ckptConfig(t)
	od.AllowBreakerOverdraw = true
	withBreaker, err := New(od)
	if err != nil {
		t.Fatal(err)
	}
	if err := withBreaker.Restore(cp); err == nil || !strings.Contains(err.Error(), "breaker") {
		t.Errorf("restore across breaker configs = %v, want breaker error", err)
	}
}

// checkCountCtx is a context that reports cancellation after its Done
// channel has been consulted a fixed number of times. Run checks ctx
// exactly once per epoch, so this deterministically cancels the run
// between two specific epochs without any timing dependence.
type checkCountCtx struct {
	context.Context
	remaining int
	closed    chan struct{}
}

func newCheckCountCtx(n int) *checkCountCtx {
	ch := make(chan struct{})
	close(ch)
	return &checkCountCtx{Context: context.Background(), remaining: n, closed: ch}
}

func (c *checkCountCtx) Done() <-chan struct{} {
	c.remaining--
	if c.remaining < 0 {
		return c.closed
	}
	return nil // a nil channel never fires: the select takes its default
}

func (c *checkCountCtx) Err() error {
	if c.remaining < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunCancelledBetweenEpochs verifies Run honors ctx at epoch
// boundaries: a cancellation surfacing at the k-th check stops the run
// with ctx.Err() before the k-th epoch executes.
func TestRunCancelledBetweenEpochs(t *testing.T) {
	// Already-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := Run(ctx, ckptConfig(t)); err != context.Canceled || res != nil {
		t.Fatalf("Run(cancelled) = %v, %v; want nil, context.Canceled", res, err)
	}

	// Cancellation after three epoch-boundary checks: exactly three
	// epochs run, then ctx.Err() propagates.
	cc := newCheckCountCtx(3)
	res, err := Run(cc, ckptConfig(t))
	if err != context.Canceled || res != nil {
		t.Fatalf("Run(mid-run cancel) = %v, %v; want nil, context.Canceled", res, err)
	}
}

// TestEngineBreakerOverdrawBurst drives the §III-A last-resort path
// epoch by epoch: with no batteries and a supply dip, the engine keeps
// sprinting on bounded grid overdraw with a setting downgraded to fit
// the breaker's remaining thermal budget, the breaker's stress
// accumulates across consecutive overdraw epochs, and once the breaker
// trips the remaining burst epochs fall back to grid-powered Normal.
func TestEngineBreakerOverdrawBurst(t *testing.T) {
	d := 30 * time.Minute
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	// Three supply phases: plenty (green-only sprint), a dip that
	// forces bounded overdraw, then near-darkness so the tripped rack
	// cannot even self-power Normal mode and must ride the grid.
	samples := make([]float64, int(d/time.Minute))
	for i := range samples {
		switch {
		case i < 10:
			samples[i] = 440
		case i < 20:
			samples[i] = 330
		default:
			samples[i] = 30
		}
	}
	e, err := New(Config{
		Workload:             testProfile,
		Green:                cluster.REOnly(),
		Strategy:             strategy.Pacing{},
		Table:                testTable,
		Burst:                workload.Burst{Intensity: 12, Duration: d},
		Supply:               trace.New("dipping", start, time.Minute, samples),
		AllowBreakerOverdraw: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	br := e.Rack().Breaker
	if br == nil {
		t.Fatal("overdraw-enabled engine must expose its breaker")
	}

	var (
		overdrawEpochs    int
		fallbackAfterTrip int
		lastStress        float64
		tripped           bool
	)
	for {
		prevStress := br.Stress()
		rec, ok, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		switch {
		case rec.Case == pss.CaseBreakerOverdraw:
			overdrawEpochs++
			if !rec.Config.IsSprinting() {
				t.Errorf("overdraw epoch not sprinting: %+v", rec)
			}
			// The last resort downgrades the setting to fit the
			// breaker's remaining thermal budget; it never runs the
			// full sprint on overdraw here.
			if rec.Config == server.MaxSprint() {
				t.Errorf("overdraw epoch ran the undowngraded max sprint: %+v", rec)
			}
			// Overdraw accumulates thermal stress, monotonically
			// within the (0,1] budget.
			if br.Stress() <= prevStress {
				t.Errorf("overdraw epoch did not accumulate stress: %v -> %v", prevStress, br.Stress())
			}
			if br.Stress() > 1 {
				t.Errorf("stress %v above the trip threshold", br.Stress())
			}
			lastStress = br.Stress()
		case tripped && rec.InBurst:
			// After the trip the rack is grid-fed Normal for the
			// rest of the burst.
			if rec.Case != pss.CaseGridFallback || rec.Config != server.Normal() {
				t.Errorf("post-trip epoch not a grid fallback: %+v", rec)
			}
			fallbackAfterTrip++
		}
		// Once the overdraw path has been exercised, force a magnetic
		// trip (an exogenous surge) and verify the engine stops
		// overdrawing for good.
		if overdrawEpochs == 2 && !tripped {
			br.Step(2*br.Rated, e.Epoch())
			if !br.Tripped() {
				t.Fatal("surge above the overload ceiling must trip the breaker")
			}
			tripped = true
		}
	}
	if overdrawEpochs < 2 {
		t.Fatalf("overdraw epochs = %d, want at least 2 to observe stress accumulation", overdrawEpochs)
	}
	if !tripped {
		t.Fatal("test never reached the forced trip")
	}
	if fallbackAfterTrip == 0 {
		t.Error("no post-trip burst epochs observed")
	}
	if lastStress <= 0 {
		t.Fatalf("final overdraw stress = %v", lastStress)
	}
}

// failAfterSink accepts n emissions, then fails every subsequent one,
// noting the epoch of each refused event.
type failAfterSink struct {
	n       int
	events  []obs.Event
	refused []int
}

func (s *failAfterSink) Emit(ev obs.Event) error {
	if len(s.events) >= s.n {
		s.refused = append(s.refused, ev.Epoch)
		return errors.New("sink full")
	}
	s.events = append(s.events, ev)
	return nil
}

// TestEngineSinkEmission checks that Step emits exactly one event per
// committed epoch and that a sink failure surfaces as a Step error —
// after the epoch record itself has been committed.
func TestEngineSinkEmission(t *testing.T) {
	cfg := ckptConfig(t)
	sink := &failAfterSink{n: 3}
	cfg.Sink = sink
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i, ev := range sink.events {
		if ev.Epoch != i {
			t.Errorf("event %d has epoch %d", i, ev.Epoch)
		}
		if ev.Time == "" {
			t.Errorf("event %d missing sim-clock timestamp", i)
		}
	}
	_, _, err = e.Step()
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("Step with failing sink: err = %v, want sink error", err)
	}
	// The epoch itself committed before the emission failed.
	if got := len(e.Result().Records); got != 4 {
		t.Errorf("records = %d, want 4 (epoch commits before sink error)", got)
	}
}
