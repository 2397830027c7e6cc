package core

import (
	"math"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

func newController(t *testing.T, strat string, green cluster.GreenConfig) *Controller {
	t.Helper()
	c, err := New(Options{
		Workload:     workload.SPECjbb(),
		Green:        green,
		StrategyName: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Workload: workload.Profile{}, Green: cluster.REBatt()}); err == nil {
		t.Error("invalid workload should fail")
	}
	if _, err := New(Options{Workload: workload.SPECjbb(), Green: cluster.GreenConfig{Name: "x"}}); err == nil {
		t.Error("zero green servers should fail")
	}
	if _, err := New(Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), StrategyName: "nope"}); err == nil {
		t.Error("unknown strategy should fail")
	}
	if _, err := New(Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), Epoch: -time.Second}); err == nil {
		t.Error("negative epoch should fail")
	}
	c := newController(t, "", cluster.REBatt())
	if c.Strategy() != "Hybrid" {
		t.Errorf("default strategy = %q", c.Strategy())
	}
	if c.Epoch() != 5*time.Minute {
		t.Errorf("default epoch = %v", c.Epoch())
	}
}

func burstTelemetry(green units.Watt) Telemetry {
	p := workload.SPECjbb()
	rate := p.IntensityRate(12)
	return Telemetry{
		GreenPower:  green,
		OfferedRate: rate,
		Goodput:     p.MaxGoodput(server.Normal()),
		Latency:     0.45,
		ServerPower: 100,
	}
}

func TestStepAbundantGreenSprints(t *testing.T) {
	c := newController(t, "Hybrid", cluster.REBatt())
	var d Decision
	var err error
	for i := 0; i < 3; i++ {
		d, err = c.Step(burstTelemetry(635))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !d.Config.IsSprinting() {
		t.Errorf("with 635W green the controller should sprint, got %v", d.Config)
	}
	if d.Case == pss.CaseGridFallback {
		t.Errorf("case = %v", d.Case)
	}
	if d.Epoch != 2 {
		t.Errorf("epoch = %d", d.Epoch)
	}
	// Knobs actually applied.
	for _, cfgApplied := range c.rack.Knobs.Configs() {
		if cfgApplied != d.Config {
			t.Errorf("knob = %v, decision = %v", cfgApplied, d.Config)
		}
	}
}

func TestStepNoGreenNoBatteryFallsBack(t *testing.T) {
	c := newController(t, "Hybrid", cluster.REOnly())
	var d Decision
	for i := 0; i < 3; i++ {
		var err error
		d, err = c.Step(burstTelemetry(0))
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.Config != server.Normal() {
		t.Errorf("REOnly without sun should run Normal, got %v", d.Config)
	}
	if d.Case != pss.CaseGridFallback {
		t.Errorf("case = %v", d.Case)
	}
}

func TestStepBatteryCarriesThenExhausts(t *testing.T) {
	c := newController(t, "Greedy", cluster.REBatt())
	sprints, fallbacks := 0, 0
	for i := 0; i < 12; i++ {
		d, err := c.Step(burstTelemetry(0))
		if err != nil {
			t.Fatal(err)
		}
		if d.Config.IsSprinting() {
			sprints++
		}
		if d.Case == pss.CaseGridFallback {
			fallbacks++
		}
	}
	if sprints < 2 {
		t.Errorf("battery should carry some sprint epochs, got %d", sprints)
	}
	if fallbacks < 6 {
		t.Errorf("battery exhaustion should force fallbacks, got %d", fallbacks)
	}
	st := c.Snapshot()
	if st.BatterySoC >= 0.99 {
		t.Errorf("battery SoC = %v", st.BatterySoC)
	}
}

func TestSnapshotAndHistory(t *testing.T) {
	c := newController(t, "Pacing", cluster.REBatt())
	for i := 0; i < 5; i++ {
		if _, err := c.Step(burstTelemetry(500)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot()
	if st.Workload != "SPECjbb" || st.Strategy != "Pacing" || st.GreenConfig != "RE-Batt" {
		t.Errorf("snapshot = %+v", st)
	}
	if st.Epoch != 5 {
		t.Errorf("epoch count = %d", st.Epoch)
	}
	if len(st.Configs) != 3 {
		t.Errorf("configs = %d", len(st.Configs))
	}
	h := c.History()
	if len(h) != 5 {
		t.Fatalf("history = %d", len(h))
	}
	for i, d := range h {
		if d.Epoch != i {
			t.Errorf("history[%d].Epoch = %d", i, d.Epoch)
		}
	}
	// History is a copy.
	h[0].Epoch = 99
	if c.History()[0].Epoch == 99 {
		t.Error("History leaked internal state")
	}
}

func TestHistoryBounded(t *testing.T) {
	c := newController(t, "Normal", cluster.REBatt())
	for i := 0; i < HistoryLimit+10; i++ {
		if _, err := c.Step(burstTelemetry(300)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.History()); got != HistoryLimit {
		t.Errorf("history len = %d, want %d", got, HistoryLimit)
	}
}

func TestMonitor(t *testing.T) {
	m := NewMonitor(workload.SPECjbb())
	for i := 0; i < 90; i++ {
		m.RecordLatency(0.1) // compliant
	}
	for i := 0; i < 10; i++ {
		m.RecordLatency(0.9) // violating
	}
	m.RecordGreenPower(600)
	m.RecordGreenPower(400)
	m.RecordServerPower(120)
	tel := m.Close(time.Minute)
	if tel.GreenPower != 500 {
		t.Errorf("green = %v", tel.GreenPower)
	}
	if tel.ServerPower != 120 {
		t.Errorf("server power = %v", tel.ServerPower)
	}
	if got := tel.OfferedRate; got != 100.0/60 {
		t.Errorf("offered = %v", got)
	}
	if got := tel.Goodput; got != 90.0/60 {
		t.Errorf("goodput = %v", got)
	}
	// p99 over 10% violations lands near 0.9s.
	if tel.Latency < 0.5 {
		t.Errorf("latency = %v, want > deadline", tel.Latency)
	}
	// Close resets.
	tel2 := m.Close(time.Minute)
	if tel2.OfferedRate != 0 || tel2.GreenPower != 0 {
		t.Errorf("monitor not reset: %+v", tel2)
	}
}

func TestControllerStepIntegratesMonitor(t *testing.T) {
	c := newController(t, "Hybrid", cluster.REBatt())
	m := NewMonitor(workload.SPECjbb())
	p := workload.SPECjbb()
	rate := p.IntensityRate(12)
	for e := 0; e < 3; e++ {
		// Simulate one epoch of requests and meter samples.
		for i := 0; i < 100; i++ {
			m.RecordLatency(0.2)
		}
		m.RecordGreenPower(635)
		m.RecordServerPower(110)
		tel := m.Close(c.Epoch())
		tel.OfferedRate = rate // open-loop offered rate
		if _, err := c.Step(tel); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Snapshot().Last.Config.IsSprinting() {
		t.Error("controller should be sprinting under abundant green")
	}
}

// TestStepSurvivesMalformedTelemetry feeds the controller hostile
// meter data: NaNs, infinities and negatives must not poison the
// predictors or crash the loop.
func TestStepSurvivesMalformedTelemetry(t *testing.T) {
	c := newController(t, "Hybrid", cluster.REBatt())
	hostile := []Telemetry{
		{GreenPower: units.Watt(math.NaN()), OfferedRate: math.NaN(), Goodput: math.NaN(), Latency: math.NaN(), ServerPower: units.Watt(math.NaN())},
		{GreenPower: -500, OfferedRate: -1, Goodput: -1, Latency: -1, ServerPower: -1},
		{GreenPower: units.Watt(math.Inf(1)), OfferedRate: math.Inf(1), Goodput: math.Inf(1), Latency: math.Inf(1), ServerPower: units.Watt(math.Inf(1))},
	}
	for i, tel := range hostile {
		d, err := c.Step(tel)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !d.Config.Valid() {
			t.Fatalf("step %d produced invalid config %v", i, d.Config)
		}
		if math.IsNaN(float64(d.Budget)) || math.IsNaN(d.PredictedRate) {
			t.Fatalf("step %d: NaN leaked into decision %+v", i, d)
		}
	}
	// A sane epoch afterwards still works.
	if _, err := c.Step(burstTelemetry(600)); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(c.Snapshot().BatterySoC) {
		t.Error("battery state poisoned")
	}
}
