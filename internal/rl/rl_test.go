package rl

import (
	"math"
	"testing"
	"testing/quick"

	"greensprint/internal/units"
)

func TestQuantizer(t *testing.T) {
	q := NewQuantizer(76, 155)
	if q.Levels() != 21 {
		t.Fatalf("levels = %d, want 21 (5%% steps)", q.Levels())
	}
	if got := q.Level(76); got != 0 {
		t.Errorf("idle level = %d", got)
	}
	if got := q.Level(155); got != 20 {
		t.Errorf("max level = %d", got)
	}
	// Below/above range clamps.
	if got := q.Level(0); got != 0 {
		t.Errorf("below range = %d", got)
	}
	if got := q.Level(500); got != 20 {
		t.Errorf("above range = %d", got)
	}
	// Midpoint.
	mid := q.Level(115.5)
	if mid != 10 {
		t.Errorf("mid level = %d, want 10", mid)
	}
	// Degenerate quantizers collapse to a single level.
	bad := Quantizer{Min: 100, Max: 100, Step: 0.05}
	if bad.Level(500) != 0 {
		t.Error("degenerate range should map to 0")
	}
	if (Quantizer{Step: 0}).Levels() != 1 {
		t.Error("zero step should yield one level")
	}
}

func TestRewardAlgorithm1(t *testing.T) {
	tests := []struct {
		name                  string
		supp, curr            float64
		qosTarget, qosCurrent float64
		want                  float64
	}{
		// Power satisfied, QoS satisfied: Rpower+Rqos+1.
		{"both good", 200, 100, 0.5, 0.25, 2 + 2 + 1},
		// Power satisfied, QoS violated: Rpower-Rqos+1.
		{"qos bad", 200, 100, 0.5, 1.0, 2 - 0.5 + 1},
		// Power violated: -Rpower-1.
		{"power bad", 100, 200, 0.5, 0.25, -0.5 - 1},
	}
	for _, tt := range tests {
		got := Reward(wattOf(tt.supp), wattOf(tt.curr), tt.qosTarget, tt.qosCurrent)
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: reward = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestRewardOrdering(t *testing.T) {
	// A setting that meets both power and QoS must always out-reward
	// one that violates power.
	good := Reward(150, 120, 0.5, 0.3)
	bad := Reward(100, 150, 0.5, 0.3)
	if good <= bad {
		t.Errorf("good %v should exceed bad %v", good, bad)
	}
	// Meeting QoS beats violating it at the same power margin.
	met := Reward(150, 120, 0.5, 0.3)
	missed := Reward(150, 120, 0.5, 0.9)
	if met <= missed {
		t.Errorf("QoS met %v should exceed missed %v", met, missed)
	}
}

func TestRewardDegenerateInputs(t *testing.T) {
	// Zero current power / latency: clamped, not NaN or Inf.
	for _, r := range []float64{
		Reward(100, 0, 0.5, 0.2),
		Reward(100, 50, 0.5, 0),
		Reward(0, 50, 0.5, 0.2),
	} {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Errorf("degenerate reward = %v", r)
		}
	}
}

func TestNewTableValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.9}, {1.5, 0.9}, {0.7, 1}, {0.7, -0.1}} {
		if _, err := NewTable(bad[0], bad[1], testPowerLevels, testLoadLevels); err == nil {
			t.Errorf("alpha=%v gamma=%v should fail", bad[0], bad[1])
		}
	}
	for _, bad := range [][2]int{{0, 10}, {21, 0}, {-1, 10}} {
		if _, err := NewTable(DefaultLearningRate, DefaultDiscount, bad[0], bad[1]); err == nil {
			t.Errorf("%d power and %d load levels should fail", bad[0], bad[1])
		}
	}
	tab, err := NewTable(DefaultLearningRate, DefaultDiscount, testPowerLevels, testLoadLevels)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Actions()) != 63 {
		t.Errorf("actions = %d, want 63", len(tab.Actions()))
	}
}

func TestSeedAndBest(t *testing.T) {
	tab, _ := NewTable(0.7, 0.9, testPowerLevels, testLoadLevels)
	s := State{PowerLevel: 3, LoadLevel: 1}
	tab.Seed(s, 5, 2.0)
	tab.Seed(s, 10, 3.0)
	if idx := argmaxQ(tab, s); idx != 10 {
		t.Errorf("best = %d, want 10", idx)
	}
	if got := tab.Q(s, 5); got != 2.0 {
		t.Errorf("Q = %v", got)
	}
	// Out-of-range actions are ignored.
	tab.Seed(s, -1, 99)
	tab.Seed(s, 1000, 99)
	if got := tab.Q(s, -1); got != 0 {
		t.Errorf("out-of-range Q = %v", got)
	}
}

// argmaxQ returns the action with the highest Q value in state s,
// the lowest index on ties.
func argmaxQ(tab *Table, s State) int {
	best := 0
	for a := range tab.Actions() {
		if tab.Q(s, a) > tab.Q(s, best) {
			best = a
		}
	}
	return best
}

func TestUpdateRule(t *testing.T) {
	tab, _ := NewTable(0.7, 0.9, testPowerLevels, testLoadLevels)
	s := State{PowerLevel: 1, LoadLevel: 1}
	next := State{PowerLevel: 1, LoadLevel: 2}
	tab.Seed(next, 3, 2.0) // max_a' R(next, a') = 2.0
	tab.Update(s, 0, 1.0, next)
	// R = 0 + 0.7*(1 + 0.9*2 - 0) = 1.96
	if got := tab.Q(s, 0); math.Abs(got-1.96) > 1e-12 {
		t.Errorf("Q after update = %v, want 1.96", got)
	}
	// Second update converges toward the target.
	tab.Update(s, 0, 1.0, next)
	want := 1.96 + 0.7*(1+0.9*2-1.96)
	if got := tab.Q(s, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Q after second update = %v, want %v", got, want)
	}
	// Out-of-range update is a no-op.
	tab.Update(s, 99, 5, next)
	if tab.States() != 2 {
		t.Errorf("states = %d", tab.States())
	}
}

// TestOutOfBoundsStates checks that a write to a state outside the
// table's bounds is dropped, and that such a state reads as all-zero.
func TestOutOfBoundsStates(t *testing.T) {
	tab := newTestTable(t)
	in := State{PowerLevel: testPowerLevels - 1, LoadLevel: testLoadLevels - 1, Degraded: DegradedLevels - 1}
	tab.Seed(in, 0, 2)
	for _, s := range []State{
		{PowerLevel: testPowerLevels}, {LoadLevel: testLoadLevels}, {Degraded: DegradedLevels},
		{PowerLevel: -1}, {LoadLevel: -1}, {Degraded: -1},
	} {
		if tab.Covers(s) {
			t.Errorf("Covers(%+v) = true", s)
		}
		tab.Seed(s, 0, 1)
		tab.Update(s, 0, 1, in)
		tab.Update(in, 1, 1, s)
		if tab.Row(s) != nil || tab.Q(s, 0) != 0 {
			t.Errorf("state %+v holds a row", s)
		}
	}
	if !tab.Covers(in) || tab.States() != 1 {
		t.Fatalf("Covers(%+v) = %v with %d states, want true with 1", in, tab.Covers(in), tab.States())
	}
	// Each of the six Updates of (in, 1) saw the out-of-bounds next
	// state as all-zero, so Q moved 70% of the way to the reward 1.
	if got, want := tab.Q(in, 1), 1-math.Pow(0.3, 6); math.Abs(got-want) > 1e-12 {
		t.Errorf("Q(in, 1) = %v, want %v", got, want)
	}
}

func TestQLearningConvergesToBestAction(t *testing.T) {
	// One-state MDP where action 7 always yields reward 5 and all
	// others yield 1: greedy choice must converge to 7.
	tab, _ := NewTable(0.7, 0.9, testPowerLevels, testLoadLevels)
	s := State{}
	for i := 0; i < 200; i++ {
		for a := range tab.Actions() {
			r := 1.0
			if a == 7 {
				r = 5.0
			}
			tab.Update(s, a, r, s)
		}
	}
	if idx := argmaxQ(tab, s); idx != 7 {
		t.Errorf("converged best = %d, want 7", idx)
	}
	// Value should approach r/(1-γ) = 50.
	if got := tab.Q(s, 7); math.Abs(got-50) > 1 {
		t.Errorf("Q(7) = %v, want ~50", got)
	}
}

// Property: quantizer levels are within range and monotone in power.
func TestQuantizerMonotoneProperty(t *testing.T) {
	q := NewQuantizer(76, 155)
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw % 300)
		b := float64(bRaw % 300)
		if a > b {
			a, b = b, a
		}
		la, lb := q.Level(wattOf(a)), q.Level(wattOf(b))
		return la <= lb && la >= 0 && lb < q.Levels()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rewards are always finite and bounded.
func TestRewardBoundedProperty(t *testing.T) {
	f := func(s, c uint16, qt, qc uint16) bool {
		r := Reward(wattOf(float64(s)), wattOf(float64(c)), float64(qt)/1000, float64(qc)/1000)
		return !math.IsNaN(r) && r >= -11 && r <= 21
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func wattOf(v float64) units.Watt { return units.Watt(v) }

func TestShapedRewardInfeasiblePower(t *testing.T) {
	// Supply below demand: same as Algorithm 1's violated branch.
	got := ShapedReward(100, 200, 0.5, 0.3)
	want := Reward(100, 200, 0.5, 0.3)
	if got != want {
		t.Errorf("infeasible shaped = %v, literal = %v", got, want)
	}
}

func TestShapedRewardMonotoneInQoS(t *testing.T) {
	// Unlike the literal Algorithm 1, the shaped reward never
	// prefers worse service below the SLA.
	better := ShapedReward(150, 120, 0.5, 0.7) // closer to target
	worse := ShapedReward(150, 120, 0.5, 2.0)  // far over target
	if better <= worse {
		t.Errorf("shaped reward not monotone: better=%v worse=%v", better, worse)
	}
}

func TestShapedRewardCapsQoSHeadroom(t *testing.T) {
	// Once the SLA is met with margin, a cheaper setting must win
	// over extra latency headroom (the Figure 10b behaviour).
	frugal := ShapedReward(150, 100, 0.5, 0.45) // just meets, low power
	lavish := ShapedReward(150, 149, 0.5, 0.05) // huge margin, high power
	if frugal <= lavish {
		t.Errorf("frugal %v should beat lavish %v", frugal, lavish)
	}
}

func TestShapedRewardMetBeatsMissed(t *testing.T) {
	met := ShapedReward(150, 120, 0.5, 0.49)
	missed := ShapedReward(150, 120, 0.5, 0.51)
	if met <= missed {
		t.Errorf("met %v should beat missed %v", met, missed)
	}
}
