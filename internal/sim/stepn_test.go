package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/strategy"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

// stepNCase is one engine configuration the StepN ≡ Step property is
// proved over. The cfg builder returns a fresh Config per call because
// strategies (the Hybrid Q-table in particular) are mutable run state.
type stepNCase struct {
	name string
	cfg  func(t *testing.T) Config
}

// stepNCases spans the batching hazard space: a plain lead/burst/tail
// run (fast segments clipped at the burst boundary), an offered-trace
// replay (fast path disabled entirely), an all-burst breaker-overdraw
// run (trip state changes mid-batch), every chaos mode with a
// mid-timeline fault (segments clipped at fault and recovery epochs),
// and a heterogeneous three-class fleet.
func stepNCases(t *testing.T) []stepNCase {
	t.Helper()
	cases := []stepNCase{
		{"plain", func(t *testing.T) Config { return ckptConfig(t) }},
		{"offered-trace", offeredTraceCfg},
		{"breaker-overdraw", overdrawCfg},
		{"fleet", func(t *testing.T) Config { return fleetCfg(t, 24) }},
	}
	total := mustNew(t, ckptConfig(t)).TotalEpochs()
	for _, mc := range chaosModeCases {
		mc := mc
		sched, _ := findChaosSchedule(t, mc.spec, mc.mode, total)
		cases = append(cases, stepNCase{
			name: "chaos-" + mc.name,
			cfg:  func(t *testing.T) Config { return chaosCfg(t, sched, mc.mode) },
		})
	}
	return cases
}

// offeredTraceCfg layers a ramping offered-rate trace over ckptConfig,
// so every epoch takes the general step path (the fast segment
// requires the square-burst offered model).
func offeredTraceCfg(t *testing.T) Config {
	t.Helper()
	cfg := ckptConfig(t)
	horizon := cfg.Lead + cfg.Burst.Duration + cfg.Tail
	peak := testProfile.IntensityRate(12)
	n := int(horizon / time.Minute)
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = peak * (0.4 + 0.6*float64(i)/float64(n-1))
	}
	cfg.Offered = trace.New("offered", cfg.Supply.Start, time.Minute, samples)
	return cfg
}

// overdrawCfg reproduces TestEngineBreakerOverdrawBurst's three-phase
// supply (sprint, bounded overdraw, trip into grid fallback) so the
// property covers breaker state transitions inside a batch.
func overdrawCfg(t *testing.T) Config {
	t.Helper()
	d := 30 * time.Minute
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
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
	return Config{
		Workload:             testProfile,
		Green:                cluster.REOnly(),
		Strategy:             strategy.Pacing{},
		Table:                testTable,
		Burst:                workload.Burst{Intensity: 12, Duration: d},
		Supply:               trace.New("dipping", start, time.Minute, samples),
		AllowBreakerOverdraw: true,
	}
}

// assertSameCheckpoint serializes both engines' checkpoints and
// demands byte equality — the strongest statement that no internal
// state diverged, since the checkpoint embeds every Snapshot pair.
func assertSameCheckpoint(t *testing.T, ref, bat *Engine) {
	t.Helper()
	rc, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bat.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(rc)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(bc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rj, bj) {
		t.Fatalf("checkpoints diverged after %d epochs:\nsequential %s\nbatched    %s",
			ref.EpochIndex(), rj, bj)
	}
}

// TestStepNMatchesStep is the batching bit-identity property: driving
// an engine with StepN in chunks of any size produces the same
// records, the same JSONL event bytes, and byte-identical checkpoints
// at every batch boundary as driving a twin engine with single Steps.
// Chunk 7 is deliberately coprime to the 10-epoch lead and 30-epoch
// burst so batch boundaries land mid-segment, mid-burst and mid-fault.
func TestStepNMatchesStep(t *testing.T) {
	chunks := []struct {
		name string
		n    int
	}{
		{"chunk-1", 1},
		{"chunk-7", 7},
		{"whole-run", 1 << 20},
	}
	for _, tc := range stepNCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, ch := range chunks {
				t.Run(ch.name, func(t *testing.T) {
					var refBuf, batBuf bytes.Buffer
					refCfg := tc.cfg(t)
					refCfg.Sink = obs.NewJSONL(&refBuf)
					ref := mustNew(t, refCfg)
					batCfg := tc.cfg(t)
					batCfg.Sink = obs.NewJSONL(&batBuf)
					bat := mustNew(t, batCfg)

					for {
						ran, err := bat.StepN(ch.n)
						if err != nil {
							t.Fatal(err)
						}
						if ran == 0 {
							break
						}
						for i := 0; i < ran; i++ {
							if _, ok, err := ref.Step(); err != nil {
								t.Fatal(err)
							} else if !ok {
								t.Fatalf("reference exhausted %d epochs into a %d-epoch batch", i, ran)
							}
						}
						assertSameCheckpoint(t, ref, bat)
					}
					if _, ok, err := ref.Step(); err != nil || ok {
						t.Fatalf("batched run stopped early: reference Step = (ok=%v, err=%v)", ok, err)
					}
					assertSameResult(t, ref.Result(), bat.Result())
					if !bytes.Equal(refBuf.Bytes(), batBuf.Bytes()) {
						t.Fatalf("event streams differ: sequential %d bytes, batched %d bytes",
							refBuf.Len(), batBuf.Len())
					}
				})
			}
		})
	}
}

// TestStepNDegenerate pins the edge contracts: non-positive n is a
// no-op, and a consumed horizon yields (0, nil) forever.
func TestStepNDegenerate(t *testing.T) {
	e := mustNew(t, ckptConfig(t))
	for _, n := range []int{0, -3} {
		if ran, err := e.StepN(n); ran != 0 || err != nil {
			t.Fatalf("StepN(%d) = (%d, %v), want (0, nil)", n, ran, err)
		}
	}
	total := e.TotalEpochs()
	if ran, err := e.StepN(total + 50); ran != total || err != nil {
		t.Fatalf("StepN(total+50) = (%d, %v), want (%d, nil)", ran, err, total)
	}
	if ran, err := e.StepN(1); ran != 0 || err != nil {
		t.Fatalf("StepN past horizon = (%d, %v), want (0, nil)", ran, err)
	}
}

// TestStepNSinkError pins the batched sink-failure contract: the
// epochs run to completion, the call returns the first emission error
// wrapped like Step's, and the events before the failure were
// delivered in order.
func TestStepNSinkError(t *testing.T) {
	cfg := ckptConfig(t)
	sink := &failAfterSink{n: 3}
	cfg.Sink = sink
	e := mustNew(t, cfg)
	total := e.TotalEpochs()
	ran, err := e.StepN(total)
	if ran != total {
		t.Fatalf("ran = %d, want %d (epochs commit before the sink error is returned)", ran, total)
	}
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
	if len(sink.events) != 3 {
		t.Fatalf("delivered events = %d, want 3", len(sink.events))
	}
	for i, ev := range sink.events {
		if ev.Epoch != i {
			t.Errorf("event %d has epoch %d", i, ev.Epoch)
		}
	}
	if got := len(e.Result().Records); got != total {
		t.Errorf("records = %d, want %d", got, total)
	}
}

// TestStepSinkErrorMatchesStepN pins Step ≡ StepN(1) on the sink-error
// path. A chaos timeline makes transitions in the first epochs, so the
// first emissions interleave chaos events with epoch records. For a
// sink failing at each of those emissions in turn, Step loops, StepN(1)
// loops and one whole-run StepN must deliver the same events, records
// and final checkpoint, and the failure must surface from the call
// that ran the failing emission's epoch, after that epoch has run.
func TestStepSinkErrorMatchesStepN(t *testing.T) {
	cfgFor := func(sink obs.Sink) Config {
		cfg := ckptConfig(t)
		cfg.Epoch = time.Minute
		cfg.Chaos = &chaos.Schedule{
			Seed: 1, Epochs: 50, Servers: 3, Units: 3,
			Faults: []chaos.Fault{
				{Epoch: 1, Mode: chaos.ServerCrash, Target: 0, Recover: 4},
				{Epoch: 2, Mode: chaos.SolarDropout, Recover: 3},
				{Epoch: 2, Mode: chaos.ServerCrash, Target: 2, Recover: 5},
			},
		}
		cfg.Sink = sink
		return cfg
	}
	full := &failAfterSink{n: 1 << 30}
	total := mustNew(t, cfgFor(full)).TotalEpochs()
	if total != 50 {
		t.Fatalf("horizon = %d epochs, want the schedule's 50", total)
	}
	const emissions = 14
	whole := mustNew(t, cfgFor(full))
	if ran, err := whole.StepN(total); ran != total || err != nil {
		t.Fatalf("fault-free sink: StepN = (%d, %v)", ran, err)
	}
	chaosEvents := 0
	for _, ev := range full.events[:emissions] {
		if ev.Chaos != "" {
			chaosEvents++
		}
	}
	if chaosEvents != 6 {
		t.Fatalf("first %d emissions hold %d chaos events, want 6", emissions, chaosEvents)
	}

	// run drives a fresh engine to its horizon, one call at a time,
	// and returns the epoch index after the first call that failed.
	run := func(sink *failAfterSink, call func(*Engine) error) (*Engine, int) {
		e := mustNew(t, cfgFor(sink))
		errAt := -1
		for i := 0; !e.Done(); i++ {
			if i > 2*total {
				t.Fatalf("no progress after %d calls", i)
			}
			if err := call(e); err != nil {
				if !strings.Contains(err.Error(), "sim: event sink: sink full") {
					t.Fatalf("err = %v, want wrapped sink error", err)
				}
				if errAt < 0 {
					errAt = e.EpochIndex()
				}
			}
		}
		return e, errAt
	}
	step := func(e *Engine) error { _, _, err := e.Step(); return err }
	stepN1 := func(e *Engine) error { _, err := e.StepN(1); return err }
	stepAll := func(e *Engine) error { _, err := e.StepN(total); return err }

	for k := 0; k <= emissions; k++ {
		seqSink, oneSink, allSink := &failAfterSink{n: k}, &failAfterSink{n: k}, &failAfterSink{n: k}
		seq, seqAt := run(seqSink, step)
		one, oneAt := run(oneSink, stepN1)
		all, allAt := run(allSink, stepAll)

		wantAt := -1
		if k < len(full.events) {
			// The refused emission belongs to epoch j; its call has
			// run epoch j when it reports.
			wantAt = full.events[k].Epoch + 1
		}
		if seqAt != wantAt || oneAt != wantAt {
			t.Errorf("k=%d: error after %d epochs under Step, %d under StepN(1), want %d",
				k, seqAt, oneAt, wantAt)
		}
		if wantAt >= 0 && (allAt != total || len(allSink.refused) == 0 || allSink.refused[0] != wantAt-1) {
			t.Errorf("k=%d: whole-run StepN reported after %d epochs refusing %v, want after %d refusing epoch %d first",
				k, allAt, allSink.refused, total, wantAt-1)
		}
		for _, s := range []*failAfterSink{seqSink, oneSink, allSink} {
			if len(s.events) != k || k > 0 && !reflect.DeepEqual(s.events, full.events[:k]) {
				t.Fatalf("k=%d: delivered %d events, want the stream's first %d", k, len(s.events), k)
			}
		}
		assertSameResult(t, seq.Result(), one.Result())
		assertSameResult(t, seq.Result(), all.Result())
		assertSameCheckpoint(t, seq, one)
		assertSameCheckpoint(t, seq, all)
	}
}
