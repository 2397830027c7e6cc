package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// chaosSched hand-builds a resolved schedule for the RE-Batt rack
// (3 green servers, 3 battery units), bypassing Resolve so tests pin
// exact fault windows.
func chaosSched(faults ...chaos.Fault) *chaos.Schedule {
	return &chaos.Schedule{Seed: 1, Epochs: 50, Servers: 3, Units: 3, Faults: faults}
}

func newChaosController(t *testing.T, strat string, sched *chaos.Schedule, sink obs.Sink) *Controller {
	t.Helper()
	inj, err := chaos.NewInjector(sched)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: strat,
		Chaos:        inj,
		Sink:         sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// captureSink records every emitted event.
type captureSink struct{ events []obs.Event }

func (s *captureSink) Emit(ev obs.Event) error {
	s.events = append(s.events, ev)
	return nil
}

// failingSink fails every emission with a fixed sentinel while armed.
type failingSink struct {
	fail bool
	err  error
}

func (s *failingSink) Emit(obs.Event) error {
	if s.fail {
		return s.err
	}
	return nil
}

func mustStep(t *testing.T, c *Controller, tel Telemetry) Decision {
	t.Helper()
	d, err := c.Step(tel)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestChaosControllerCheckpointRoundTrip cuts a v2 checkpoint in the
// middle of each failure mode's active window, restores it into a
// fresh controller with a fresh injector, and verifies the two
// controllers emit bit-identical decisions and events from then on —
// through the recovery and beyond. This is the daemon's
// SIGINT-mid-outage resume property at the controller level.
func TestChaosControllerCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		faults []chaos.Fault
	}{
		{"server-crash", []chaos.Fault{{Epoch: 2, Mode: chaos.ServerCrash, Target: 1, Recover: 8}}},
		{"pss-stuck", []chaos.Fault{{Epoch: 2, Mode: chaos.PSSStuck, Recover: 8}}},
		{"battery-degrade", []chaos.Fault{{Epoch: 2, Mode: chaos.BatteryDegrade, Target: 0, Factor: 0.7, Resist: 1.3}}},
		{"solar-dropout", []chaos.Fault{{Epoch: 2, Mode: chaos.SolarDropout, Recover: 8}}},
		{"breaker-trip", []chaos.Fault{{Epoch: 2, Mode: chaos.BreakerTrip, Recover: 8}}},
		// The cascade: a zone marker plus its expanded constituents,
		// exactly as Resolve emits them.
		{"zone-outage", []chaos.Fault{
			{Epoch: 2, Mode: chaos.ZoneOutage, Target: 0, Recover: 8},
			{Epoch: 2, Mode: chaos.ServerCrash, Target: 0, Recover: 8, Cascade: true},
			{Epoch: 2, Mode: chaos.ServerCrash, Target: 1, Recover: 8, Cascade: true},
			{Epoch: 2, Mode: chaos.SolarDropout, Recover: 8, Cascade: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := chaosSched(tc.faults...)
			a := newChaosController(t, "Hybrid", sched, nil)
			for i := 0; i < 5; i++ { // fault strikes at 2, recovers at 8: epoch 5 is mid-fault
				mustStep(t, a, burstTelemetry(500))
			}

			// Mid-fault state must actually be degraded, or the round
			// trip proves nothing.
			st := a.Snapshot()
			switch tc.name {
			case "server-crash":
				if st.Alive != 2 {
					t.Fatalf("mid-fault alive = %d, want 2", st.Alive)
				}
			case "pss-stuck":
				if !st.PSSStuck {
					t.Fatal("mid-fault PSS not stuck")
				}
			case "breaker-trip":
				if !st.BreakerTripped {
					t.Fatal("mid-fault breaker not tripped")
				}
			case "battery-degrade":
				if h := a.selector.Bank().Health(); h >= 1 {
					t.Fatalf("mid-fault battery health = %v, want < 1", h)
				}
			case "zone-outage":
				if st.Alive != 1 {
					t.Fatalf("mid-cascade alive = %d, want 1", st.Alive)
				}
			}

			cp, err := a.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeCheckpoint(raw)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Version != CheckpointVersion || decoded.Chaos == nil {
				t.Fatalf("chaos checkpoint version %d, chaos %v", decoded.Version, decoded.Chaos)
			}

			b := newChaosController(t, "Hybrid", sched, nil)
			if err := b.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			sa, sb := a.Snapshot(), b.Snapshot()
			if sa.Alive != sb.Alive || sa.PSSStuck != sb.PSSStuck || sa.BreakerTripped != sb.BreakerTripped {
				t.Fatalf("restored chaos state %+v, want %+v", sb, sa)
			}
			if ha, hb := a.selector.Bank().Health(), b.selector.Bank().Health(); ha != hb {
				t.Fatalf("restored battery health %v, want %v", hb, ha)
			}

			// From here both controllers must march in lockstep through
			// the recovery at epoch 8 and the healthy epochs after it —
			// decisions and emitted events bit for bit.
			ca, cb := &captureSink{}, &captureSink{}
			a.SetSink(ca)
			b.SetSink(cb)
			for i := 0; i < 8; i++ {
				da := mustStep(t, a, burstTelemetry(400))
				db := mustStep(t, b, burstTelemetry(400))
				if da != db {
					t.Fatalf("post-restore step %d diverged:\noriginal %+v\nrestored %+v", i, da, db)
				}
			}
			ea, err := json.Marshal(ca.events)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := json.Marshal(cb.events)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ea, eb) {
				t.Errorf("post-restore event streams diverged:\noriginal %s\nrestored %s", ea, eb)
			}
		})
	}
}

// TestCheckpointLegacyV2Fixture restores the committed v2 checkpoint
// testdata/legacy_v2.checkpoint.json, cut five epochs into a chaos run
// (server 1 down for epochs 2–8, battery unit 0 degraded at epoch 3) by
// a controller that still stored the rack's bank per unit. The folded
// bank must re-cut to exactly the uninterrupted controller's checkpoint,
// and the two controllers must then decide and emit identically.
func TestCheckpointLegacyV2Fixture(t *testing.T) {
	sched := chaosSched(
		chaos.Fault{Epoch: 2, Mode: chaos.ServerCrash, Target: 1, Recover: 8},
		chaos.Fault{Epoch: 3, Mode: chaos.BatteryDegrade, Target: 0, Factor: 0.7, Resist: 1.3},
	)
	a := newChaosController(t, "Greedy", sched, nil)
	for i := 0; i < 5; i++ {
		mustStep(t, a, burstTelemetry(250))
	}

	raw, err := os.ReadFile("testdata/legacy_v2.checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatalf("decode legacy v2 fixture: %v", err)
	}
	if len(cp.Selector.Bank.Units) != 3 || cp.Selector.Bank.Groups != nil {
		t.Fatalf("fixture bank is not per-unit: %+v", cp.Selector.Bank)
	}
	b := newChaosController(t, "Greedy", sched, nil)
	if err := b.Restore(cp); err != nil {
		t.Fatalf("restore legacy v2 fixture: %v", err)
	}
	acp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bcp, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(acp)
	bb, _ := json.Marshal(bcp)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("restored controller re-cuts\n%s\nuninterrupted controller\n%s", bb, ab)
	}

	ca, cb := &captureSink{}, &captureSink{}
	a.SetSink(ca)
	b.SetSink(cb)
	for i := 0; i < 8; i++ {
		da := mustStep(t, a, burstTelemetry(300))
		db := mustStep(t, b, burstTelemetry(300))
		if da != db {
			t.Fatalf("post-restore step %d diverged:\noriginal %+v\nrestored %+v", i, da, db)
		}
	}
	ea, _ := json.Marshal(ca.events)
	eb, _ := json.Marshal(cb.events)
	if !bytes.Equal(ea, eb) {
		t.Errorf("post-restore event streams diverged:\noriginal %s\nrestored %s", ea, eb)
	}
}

// TestCheckpointV1Migration is the canned-blob test for the v1→v2
// bump: a checkpoint re-encoded in the exact v1 wire format (version
// stamped 1; no epoch_seconds, chaos or breaker fields) decodes
// through the migration shim, restores into a fault-free controller,
// and the continued run matches the uninterrupted original bit for
// bit.
func TestCheckpointV1Migration(t *testing.T) {
	a := newController(t, "Hybrid", cluster.REBatt())
	for i := 0; i < 4; i++ {
		mustStep(t, a, burstTelemetry(450))
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}

	got, err := DecodeCheckpoint(asV1ControllerBlob(t, raw))
	if err != nil {
		t.Fatalf("decode v1 checkpoint: %v", err)
	}
	if got.Version != CheckpointVersion {
		t.Errorf("migrated version = %d, want %d", got.Version, CheckpointVersion)
	}
	if got.EpochSeconds != 0 {
		t.Errorf("migrated epoch fingerprint = %v, want 0 (v1 predates the field)", got.EpochSeconds)
	}
	if got.Chaos != nil || got.Breaker != nil {
		t.Errorf("migrated v1 checkpoint carries chaos state: %+v %+v", got.Chaos, got.Breaker)
	}

	b := newController(t, "Hybrid", cluster.REBatt())
	if err := b.Restore(got); err != nil {
		t.Fatalf("restore migrated v1 checkpoint: %v", err)
	}
	for i := 0; i < 3; i++ {
		da := mustStep(t, a, burstTelemetry(350))
		db := mustStep(t, b, burstTelemetry(350))
		if da != db {
			t.Fatalf("post-migration step %d diverged:\noriginal %+v\nrestored %+v", i, da, db)
		}
	}
}

// TestRestoreRejectsEpochAndChaosMismatch covers the two v2
// fingerprints: a checkpoint cut at one epoch length must not restore
// into a controller ticking another, and chaos presence must agree
// between checkpoint and controller in both directions.
func TestRestoreRejectsEpochAndChaosMismatch(t *testing.T) {
	a := newController(t, "Hybrid", cluster.REBatt())
	mustStep(t, a, burstTelemetry(400))
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	bad := *cp
	bad.EpochSeconds = cp.EpochSeconds * 2
	if err := newController(t, "Hybrid", cluster.REBatt()).Restore(&bad); err == nil {
		t.Error("epoch-length mismatch accepted")
	}

	// Fault-free checkpoint into a chaos controller.
	cc := newChaosController(t, "Hybrid", chaosSched(), nil)
	if err := cc.Restore(cp); err == nil {
		t.Error("fault-free checkpoint accepted by chaos controller")
	}

	// Chaos checkpoint into a fault-free controller.
	mustStep(t, cc, burstTelemetry(400))
	ccp, err := cc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ccp.Chaos == nil {
		t.Fatal("chaos controller checkpoint carries no injector state")
	}
	if err := newController(t, "Hybrid", cluster.REBatt()).Restore(ccp); err == nil {
		t.Error("chaos checkpoint accepted by fault-free controller")
	}
}

// TestChaosEmptyScheduleBitIdentical is the fault-free bit-identity
// guard: a controller carrying a chaos injector whose timeline holds
// no faults must decide and emit exactly as a controller with no
// injector at all.
func TestChaosEmptyScheduleBitIdentical(t *testing.T) {
	ca, cb := &captureSink{}, &captureSink{}
	plain, err := New(Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Hybrid",
		Sink:         ca,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaotic := newChaosController(t, "Hybrid", chaosSched(), cb)
	for i := 0; i < 10; i++ {
		tel := burstTelemetry(units.Watt(600 - 25*i))
		da := mustStep(t, plain, tel)
		db := mustStep(t, chaotic, tel)
		if da != db {
			t.Fatalf("epoch %d diverged: plain %+v chaos %+v", i, da, db)
		}
	}
	ea, err := json.Marshal(ca.events)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := json.Marshal(cb.events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Errorf("event streams diverged:\nplain %s\nchaos %s", ea, eb)
	}
}

// TestChaosTelemetryDegradedCoherently pins the telemetry-degradation
// fix: with a third of the rack down, the offered rate, the goodput
// AND the per-server draw all shrink by the alive fraction (not just
// goodput, which skewed the learner's reward ratios), and a solar
// dropout zeroes the observed green supply.
func TestChaosTelemetryDegradedCoherently(t *testing.T) {
	sink := &captureSink{}
	sched := chaosSched(chaos.Fault{Epoch: 1, Mode: chaos.ServerCrash, Target: 0, Recover: 40})
	c := newChaosController(t, "Pacing", sched, sink)
	tel := burstTelemetry(600)
	for i := 0; i < 4; i++ {
		mustStep(t, c, tel)
	}
	var healthy, degraded *obs.Event
	for i := range sink.events {
		ev := &sink.events[i]
		if ev.Chaos != "" {
			continue
		}
		switch ev.Epoch {
		case 0:
			healthy = ev
		case 2:
			degraded = ev
		}
	}
	if healthy == nil || degraded == nil {
		t.Fatalf("missing epoch records in %+v", sink.events)
	}
	if healthy.OfferedRate != tel.OfferedRate || healthy.Goodput != tel.Goodput {
		t.Errorf("healthy epoch scaled telemetry: %+v", healthy)
	}
	scale := 2.0 / 3.0
	if degraded.Alive != 2 {
		t.Errorf("degraded epoch alive = %d, want 2", degraded.Alive)
	}
	if got, want := degraded.OfferedRate, tel.OfferedRate*scale; got != want {
		t.Errorf("degraded offered rate = %v, want %v", got, want)
	}
	if got, want := degraded.Goodput, tel.Goodput*scale; got != want {
		t.Errorf("degraded goodput = %v, want %v", got, want)
	}
	if got, want := degraded.ServerPowerW, float64(tel.ServerPower)*scale; got != want {
		t.Errorf("degraded server power = %v, want %v", got, want)
	}
	// The degraded ratios the learner sees stay coherent: goodput per
	// offered request is untouched by the fault.
	if hr, dr := healthy.Goodput/healthy.OfferedRate, degraded.Goodput/degraded.OfferedRate; hr != dr {
		t.Errorf("goodput/offered ratio skewed by fault: healthy %v degraded %v", hr, dr)
	}

	// Solar dropout zeroes the observed green supply.
	sink2 := &captureSink{}
	c2 := newChaosController(t, "Pacing", chaosSched(chaos.Fault{Epoch: 1, Mode: chaos.SolarDropout, Recover: 40}), sink2)
	for i := 0; i < 3; i++ {
		mustStep(t, c2, tel)
	}
	for _, ev := range sink2.events {
		if ev.Chaos != "" || ev.Epoch < 1 {
			continue
		}
		if ev.GreenSupplyW != 0 {
			t.Errorf("dropout epoch %d sees %v W green supply, want 0", ev.Epoch, ev.GreenSupplyW)
		}
	}
}

// TestHybridLearnsDegradedStatesSeparately drives a Hybrid through
// crash epochs and checks the Q-table grew rows in a Degraded > 0
// state slice: fault-mode experience must not overwrite the healthy
// estimates.
func TestHybridLearnsDegradedStatesSeparately(t *testing.T) {
	sched := chaosSched(chaos.Fault{Epoch: 1, Mode: chaos.ServerCrash, Target: 0, Recover: 40})
	c := newChaosController(t, "Hybrid", sched, nil)
	for i := 0; i < 8; i++ {
		mustStep(t, c, burstTelemetry(500))
	}
	h, ok := c.HybridStrategy()
	if !ok {
		t.Fatal("no Hybrid strategy")
	}
	var buf bytes.Buffer
	if err := h.SaveQ(&buf); err != nil {
		t.Fatal(err)
	}
	var table struct {
		States []struct {
			Degraded int `json:"degraded"`
		} `json:"states"`
	}
	if err := json.Unmarshal(buf.Bytes(), &table); err != nil {
		t.Fatal(err)
	}
	deg, healthy := 0, 0
	for _, s := range table.States {
		if s.Degraded > 0 {
			deg++
		} else {
			healthy++
		}
	}
	if deg == 0 {
		t.Errorf("no Degraded > 0 states learned over %d rows — fault epochs fed the healthy slice", len(table.States))
	}
	if healthy == 0 {
		t.Error("no healthy states present")
	}
}

// TestChaosStuckSelectorForcesFallback welds the PSS to the utility
// feed: even under abundant green the controller must ride the grid
// at Normal mode until the switch is freed.
func TestChaosStuckSelectorForcesFallback(t *testing.T) {
	sched := chaosSched(chaos.Fault{Epoch: 1, Mode: chaos.PSSStuck, Recover: 6})
	c := newChaosController(t, "Hybrid", sched, nil)
	sprintsAfter := 0
	for i := 0; i < 12; i++ {
		d := mustStep(t, c, burstTelemetry(635))
		switch {
		case i >= 1 && i < 6:
			if d.Case != pss.CaseGridFallback {
				t.Errorf("stuck epoch %d: case %v, want grid-fallback", i, d.Case)
			}
			if d.Config.IsSprinting() {
				t.Errorf("stuck epoch %d sprints: %v", i, d.Config)
			}
		case i >= 6:
			if d.Config.IsSprinting() {
				sprintsAfter++
			}
		}
	}
	if sprintsAfter == 0 {
		t.Error("controller never resumed sprinting after the switch was freed")
	}
}

// TestChaosFullOutageKeepsNumbering crashes the whole rack: outage
// epochs decide Normal-on-grid with zero demand, the batteries keep
// banking whatever green remains, and the epoch numbering stays
// monotone and gap-free across the outage — the property the daemon's
// resume smoke asserts end to end.
func TestChaosFullOutageKeepsNumbering(t *testing.T) {
	sink := &captureSink{}
	sched := chaosSched(
		chaos.Fault{Epoch: 2, Mode: chaos.ServerCrash, Target: 0, Recover: 5},
		chaos.Fault{Epoch: 2, Mode: chaos.ServerCrash, Target: 1, Recover: 5},
		chaos.Fault{Epoch: 2, Mode: chaos.ServerCrash, Target: 2, Recover: 5},
	)
	c := newChaosController(t, "Hybrid", sched, sink)
	for i := 0; i < 8; i++ {
		d := mustStep(t, c, burstTelemetry(300))
		if d.Epoch != i {
			t.Fatalf("decision epoch = %d, want %d", d.Epoch, i)
		}
		if i >= 2 && i < 5 {
			if d.Config != server.Normal() || d.Case != pss.CaseGridFallback || d.Demand != 0 {
				t.Errorf("outage epoch %d: %+v", i, d)
			}
		}
	}
	next := 0
	for _, ev := range sink.events {
		if ev.Chaos != "" {
			continue
		}
		if ev.Epoch != next {
			t.Fatalf("event epoch %d, want %d — numbering gap across the outage", ev.Epoch, next)
		}
		next++
	}
	if next != 8 {
		t.Errorf("epoch records = %d, want 8", next)
	}
}

// TestStepSinkErrorStillApplies pins the SinkError contract: a failed
// event emission surfaces as *SinkError with the applied decision —
// the epoch counted, the knobs actuated — so callers persist the step
// instead of dropping it. A chaos-event emission failure follows the
// same contract.
func TestStepSinkErrorStillApplies(t *testing.T) {
	sentinel := errors.New("event disk full")
	fs := &failingSink{err: sentinel}
	c, err := New(Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Hybrid",
		Sink:         fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustStep(t, c, burstTelemetry(500))

	fs.fail = true
	d, err := c.Step(burstTelemetry(500))
	var se *SinkError
	if !errors.As(err, &se) {
		t.Fatalf("step with failing sink = %v, want *SinkError", err)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("SinkError does not unwrap to the sink's error: %v", err)
	}
	if !d.Config.Valid() || d.Epoch != 1 {
		t.Errorf("decision alongside SinkError = %+v, want applied epoch-1 decision", d)
	}
	if got := c.Snapshot().Epoch; got != 2 {
		t.Errorf("epoch count = %d, want 2 — the step must still commit", got)
	}

	// Chaos-event emission failures follow the same contract.
	fs2 := &failingSink{fail: true, err: sentinel}
	cc := newChaosController(t, "Hybrid", chaosSched(chaos.Fault{Epoch: 0, Mode: chaos.ServerCrash, Target: 0, Recover: 3}), fs2)
	d2, err := cc.Step(burstTelemetry(500))
	if !errors.As(err, &se) {
		t.Fatalf("chaos step with failing sink = %v, want *SinkError", err)
	}
	if !d2.Config.Valid() || cc.Snapshot().Epoch != 1 {
		t.Errorf("chaos decision alongside SinkError = %+v (count %d)", d2, cc.Snapshot().Epoch)
	}
}
