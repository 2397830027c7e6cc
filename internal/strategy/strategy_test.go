package strategy

import (
	"bytes"
	"math"
	"testing"
	"time"

	"greensprint/internal/profile"
	"greensprint/internal/rl"
	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

var (
	specjbb  = workload.SPECjbb()
	specTab  *profile.Table
	webTab   *profile.Table
	memTab   *profile.Table
	webSrch  = workload.WebSearch()
	memcache = workload.Memcached()
)

func init() {
	var err error
	if specTab, err = profile.Build(specjbb, profile.DefaultLevels); err != nil {
		panic(err)
	}
	if webTab, err = profile.Build(webSrch, profile.DefaultLevels); err != nil {
		panic(err)
	}
	if memTab, err = profile.Build(memcache, profile.DefaultLevels); err != nil {
		panic(err)
	}
}

func inputs(tab *profile.Table, rate float64, budget units.Watt) Inputs {
	return Inputs{Table: tab, PredictedRate: rate, Budget: budget, Epoch: 5 * time.Minute}
}

func burstRate(p workload.Profile) float64 { return p.IntensityRate(12) }

func TestNormal(t *testing.T) {
	var s Normal
	if s.Name() != "Normal" {
		t.Error("name")
	}
	if got := s.Decide(inputs(specTab, burstRate(specjbb), 1000)); got != server.Normal() {
		t.Errorf("Normal decided %v", got)
	}
	s.Learn(Feedback{}) // no-op must not panic
}

func TestGreedyAbundantBudget(t *testing.T) {
	var s Greedy
	if got := s.Decide(inputs(specTab, burstRate(specjbb), 200)); got != server.MaxSprint() {
		t.Errorf("greedy with 200W = %v, want max sprint", got)
	}
}

func TestGreedyInsufficientBudgetFallsToNormal(t *testing.T) {
	var s Greedy
	// 140 W cannot carry the 155 W max sprint: Greedy has no middle
	// ground and returns to Normal — exactly why it "loses the
	// opportunity to utilize the lower green power supply periods".
	if got := s.Decide(inputs(specTab, burstRate(specjbb), 140)); got != server.Normal() {
		t.Errorf("greedy with 140W = %v, want Normal", got)
	}
	if got := s.Decide(Inputs{Budget: 500}); got != server.Normal() {
		t.Errorf("greedy without table = %v", got)
	}
}

func TestParallelScalesOnlyCores(t *testing.T) {
	var s Parallel
	for _, budget := range []units.Watt{100, 120, 140, 200} {
		got := s.Decide(inputs(specTab, burstRate(specjbb), budget))
		if got != server.Normal() && got.Freq != units.FreqMax {
			t.Errorf("budget %v: parallel chose %v (freq not pinned)", budget, got)
		}
	}
	// Abundant budget: all cores at max frequency.
	if got := s.Decide(inputs(specTab, burstRate(specjbb), 200)); got != server.MaxSprint() {
		t.Errorf("parallel at 200W = %v", got)
	}
	// Starved budget: Normal.
	if got := s.Decide(inputs(specTab, burstRate(specjbb), 50)); got != server.Normal() {
		t.Errorf("parallel at 50W = %v", got)
	}
}

func TestPacingScalesOnlyFrequency(t *testing.T) {
	var s Pacing
	for _, budget := range []units.Watt{120, 140, 200} {
		got := s.Decide(inputs(specTab, burstRate(specjbb), budget))
		if got != server.Normal() && got.Cores != server.MaxCores {
			t.Errorf("budget %v: pacing chose %v (cores not pinned)", budget, got)
		}
	}
	if got := s.Decide(inputs(specTab, burstRate(specjbb), 200)); got != server.MaxSprint() {
		t.Errorf("pacing at 200W = %v", got)
	}
}

func TestDecisionsRespectBudget(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	rate := burstRate(specjbb)
	level := specTab.LevelFor(rate)
	for _, s := range []Strategy{Greedy{}, Parallel{}, Pacing{}, h} {
		for _, budget := range []units.Watt{90, 110, 130, 150, 170} {
			got := s.Decide(inputs(specTab, rate, budget))
			if got == server.Normal() {
				continue // grid fallback is always allowed
			}
			p, ok := specTab.LoadPower(level, got)
			if !ok {
				t.Fatalf("%s chose unprofiled %v", s.Name(), got)
			}
			if p > budget {
				t.Errorf("%s at %v chose %v drawing %v", s.Name(), budget, got, p)
			}
		}
	}
}

func TestPacingBeatsParallelForSPECjbb(t *testing.T) {
	// §IV-A: "Pacing slightly outperforms Parallel in all cases"
	// for SPECjbb (and Memcached).
	for _, tc := range []struct {
		p   workload.Profile
		tab *profile.Table
	}{{specjbb, specTab}, {memcache, memTab}} {
		rate := burstRate(tc.p)
		level := tc.tab.LevelFor(rate)
		for _, budget := range []units.Watt{120, 130, 140} {
			par := Parallel{}.Decide(inputs(tc.tab, rate, budget))
			pac := Pacing{}.Decide(inputs(tc.tab, rate, budget))
			ePar, _ := tc.tab.Lookup(level, par)
			ePac, _ := tc.tab.Lookup(level, pac)
			if ePac.Goodput < ePar.Goodput {
				t.Errorf("%s at %v: pacing %v < parallel %v", tc.p.Name, budget, ePac.Goodput, ePar.Goodput)
			}
		}
	}
}

func TestWebSearchKnobsComparable(t *testing.T) {
	// §IV-C: for Web-Search "Pacing shows no more benefits than
	// Parallel ... similar performance under varied conditions".
	rate := burstRate(webSrch)
	level := webTab.LevelFor(rate)
	for _, budget := range []units.Watt{120, 130, 140} {
		par := Parallel{}.Decide(inputs(webTab, rate, budget))
		pac := Pacing{}.Decide(inputs(webTab, rate, budget))
		ePar, _ := webTab.Lookup(level, par)
		ePac, _ := webTab.Lookup(level, pac)
		if ePar.Goodput == 0 {
			continue
		}
		if diff := math.Abs(ePac.Goodput-ePar.Goodput) / ePar.Goodput; diff > 0.15 {
			t.Errorf("budget %v: pacing %v vs parallel %v differ by %.0f%%",
				budget, ePac.Goodput, ePar.Goodput, diff*100)
		}
	}
}

func TestHybridDominates(t *testing.T) {
	// Hybrid "always performs the best": at every budget its chosen
	// setting delivers at least the goodput of every other strategy.
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	rate := burstRate(specjbb)
	level := specTab.LevelFor(rate)
	for _, budget := range []units.Watt{100, 115, 125, 135, 145, 160, 200} {
		in := inputs(specTab, rate, budget)
		hCfg := h.Decide(in)
		eH, _ := specTab.Lookup(level, hCfg)
		for _, s := range []Strategy{Greedy{}, Parallel{}, Pacing{}} {
			cfg := s.Decide(in)
			e, _ := specTab.Lookup(level, cfg)
			if e.Goodput > eH.Goodput+1e-9 {
				t.Errorf("budget %v: %s (%v, %v) beats Hybrid (%v, %v)",
					budget, s.Name(), cfg, e.Goodput, hCfg, eH.Goodput)
			}
		}
	}
}

func TestHybridPrefersFrugalAtLowIntensity(t *testing.T) {
	// Figure 10b: at Int=9 maximal sprinting is wasteful. Hybrid
	// should serve the load with a cheaper setting than max sprint.
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	rate := specjbb.IntensityRate(9)
	cfg := h.Decide(inputs(specTab, rate, 200))
	level := specTab.LevelFor(rate)
	chosen, _ := specTab.Lookup(level, cfg)
	maxE, _ := specTab.Lookup(level, server.MaxSprint())
	if chosen.Power >= maxE.Power {
		t.Errorf("hybrid at Int=9 chose %v (%v), not cheaper than max sprint (%v)",
			cfg, chosen.Power, maxE.Power)
	}
	// And it still serves the offered load.
	if chosen.Goodput < rate*0.99 {
		t.Errorf("hybrid at Int=9 sheds load: %v < %v", chosen.Goodput, rate)
	}
}

func TestHybridStarvedBudget(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Decide(inputs(specTab, burstRate(specjbb), 40)); got != server.Normal() {
		t.Errorf("starved hybrid = %v", got)
	}
}

func TestHybridLearns(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs(specTab, burstRate(specjbb), 160)
	cfg := h.Decide(in)
	st := h.stateFor(in)
	var action int
	for ai, c := range h.table.Actions() {
		if c == cfg {
			action = ai
		}
	}
	before := h.table.Q(st, action)
	// Strongly negative outcome: power overdraw.
	h.Learn(Feedback{
		Chosen:  cfg,
		Supply:  100,
		Power:   155,
		Offered: burstRate(specjbb),
		Goodput: burstRate(specjbb),
		Latency: 0.4,
		Next:    in,
	})
	after := h.table.Q(st, action)
	if after >= before {
		t.Errorf("negative feedback should lower Q: %v -> %v", before, after)
	}
	// Learn without a prior decision is a no-op.
	h2, _ := NewHybrid(specjbb, specTab)
	h2.Learn(Feedback{Supply: 100, Power: 155})
}

func TestNewHybridErrors(t *testing.T) {
	if _, err := NewHybrid(workload.Profile{}, specTab); err == nil {
		t.Error("invalid profile should error")
	}
	if _, err := NewHybrid(specjbb, nil); err == nil {
		t.Error("nil table should error")
	}
}

func TestEffectiveLatency(t *testing.T) {
	p := specjbb
	c := server.MaxSprint()
	// Light load: the true percentile, well under the deadline.
	light := EffectiveLatency(p, c, p.MaxGoodput(c)/2)
	if light >= p.Deadline {
		t.Errorf("light latency = %v", light)
	}
	// Saturating load: inflated beyond the deadline, finite.
	heavy := EffectiveLatency(p, c, p.MaxGoodput(c)*2)
	if heavy <= p.Deadline || math.IsInf(heavy, 1) {
		t.Errorf("heavy latency = %v", heavy)
	}
	// Monotone in capacity: Normal mode is worse at the same load.
	normal := EffectiveLatency(p, server.Normal(), p.MaxGoodput(c)*2)
	if normal <= heavy {
		t.Errorf("normal %v should be worse than sprint %v", normal, heavy)
	}
	// Zero offered load is trivially fast.
	if got := EffectiveLatency(p, c, 0); got >= p.Deadline {
		t.Errorf("idle latency = %v", got)
	}
}

// TestEvaluatedAndByName builds every evaluated strategy by its paper
// name.
func TestEvaluatedAndByName(t *testing.T) {
	for _, n := range Names() {
		s, err := ByName(n, specjbb, specTab)
		if err != nil || s.Name() != n {
			t.Errorf("ByName(%q): %v %v", n, s, err)
		}
	}
	if _, err := ByName("nope", specjbb, specTab); err == nil {
		t.Error("unknown strategy should error")
	}
	if _, err := ByName("Hybrid", workload.Profile{}, specTab); err == nil {
		t.Error("invalid profile should error")
	}
}

func TestHybridQPersistence(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	// Train a little so the table differs from a fresh bootstrap.
	in := inputs(specTab, burstRate(specjbb), 160)
	cfg := h.Decide(in)
	h.Learn(Feedback{Chosen: cfg, Supply: 100, Power: 155, Offered: burstRate(specjbb),
		Goodput: burstRate(specjbb) / 4, Latency: 2.0, Next: in})

	raw, err := h.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreState(raw); err != nil {
		t.Fatal(err)
	}
	// The restored strategy holds the trained table and makes the same
	// decision as the trained one.
	var want, got bytes.Buffer
	if err := h.SaveQ(&want); err != nil {
		t.Fatal(err)
	}
	if err := h2.SaveQ(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("restored Q-table differs from the trained one")
	}
	if got, want := h2.Decide(in), h.Decide(in); got != want {
		t.Errorf("restored decision %v, trained %v", got, want)
	}
	if err := h2.RestoreState([]byte(`{"q_table":{bad}`)); err == nil {
		t.Error("corrupt table should fail to restore")
	}
}

func TestNonLearningStrategiesIgnoreFeedback(t *testing.T) {
	// Learn is part of the Strategy contract; the static strategies
	// must accept (and ignore) feedback without side effects.
	for _, s := range []Strategy{Normal{}, Greedy{}, Parallel{}, Pacing{}} {
		in := inputs(specTab, burstRate(specjbb), 200)
		before := s.Decide(in)
		s.Learn(Feedback{Supply: 1, Power: 999, Latency: 99})
		if after := s.Decide(in); after != before {
			t.Errorf("%s changed decision after Learn: %v -> %v", s.Name(), before, after)
		}
	}
}

func TestInputsFractionClamping(t *testing.T) {
	in := Inputs{
		Budget:         100,
		SprintFraction: func(p units.Watt) float64 { return float64(p) },
	}
	if got := in.fraction(-5); got != 0 {
		t.Errorf("negative fraction = %v", got)
	}
	if got := in.fraction(5); got != 1 {
		t.Errorf("oversized fraction = %v", got)
	}
	if got := in.fraction(0.5); got != 0.5 {
		t.Errorf("plain fraction = %v", got)
	}
}

func TestNewHybridWithOptionsValidation(t *testing.T) {
	if _, err := NewHybridWithOptions(specjbb, specTab, HybridOptions{QuantizationStep: 1.5}); err == nil {
		t.Error("step > 1 should fail")
	}
	// The first step past the level bound: 1/1000 quantizes to
	// MaxLevels+1 levels and must fail before a Q-table is sized.
	if n := (rl.Quantizer{Step: 0.001}).Levels(); n != profile.MaxLevels+1 {
		t.Fatalf("step 0.001 gives %d levels, want %d", n, profile.MaxLevels+1)
	}
	if _, err := NewHybridWithOptions(specjbb, specTab, HybridOptions{QuantizationStep: 0.001}); err == nil {
		t.Errorf("step with %d levels should fail", profile.MaxLevels+1)
	}
	h, err := NewHybridWithOptions(specjbb, specTab, HybridOptions{QuantizationStep: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if h.QTable() == nil {
		t.Error("QTable accessor")
	}
	if _, err := NewHybridWithOptions(workload.Profile{}, specTab, HybridOptions{}); err == nil {
		t.Error("invalid profile should fail")
	}
	if _, err := NewHybridWithOptions(specjbb, nil, HybridOptions{}); err == nil {
		t.Error("nil table should fail")
	}
}

func TestHybridDisableBurnValue(t *testing.T) {
	h, err := NewHybridWithOptions(specjbb, specTab, strategyOptsPureQ())
	if err != nil {
		t.Fatal(err)
	}
	// With the burn path disabled and a starved budget, the pure-Q
	// policy falls back to Normal.
	if got := h.Decide(inputs(specTab, burstRate(specjbb), 40)); got != server.Normal() {
		t.Errorf("pure-Q starved = %v", got)
	}
	// With an abundant budget it still sprints (bootstrapped Q).
	if got := h.Decide(inputs(specTab, burstRate(specjbb), 200)); !got.IsSprinting() {
		t.Errorf("pure-Q abundant = %v", got)
	}
}

func strategyOptsPureQ() HybridOptions {
	return HybridOptions{DisableBurnValue: true}
}

func TestHybridLiteralRewardLearns(t *testing.T) {
	h, err := NewHybridWithOptions(specjbb, specTab, HybridOptions{LiteralReward: true})
	if err != nil {
		t.Fatal(err)
	}
	in := inputs(specTab, burstRate(specjbb), 160)
	cfg := h.Decide(in)
	// Learning with the literal reward must not panic and must
	// update the table.
	h.Learn(Feedback{Chosen: cfg, Supply: 100, Power: 155, Offered: 1,
		Goodput: 1, Latency: 0.1, Next: in})
}
