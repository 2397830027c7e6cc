package strategy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/cluster"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/units"
)

// refDecide is the all-probe reference for Hybrid.Decide: it asks for
// the sprint fraction of every profiled action at the level, then runs
// the same Q pass and burn pass. It returns the choice and the
// fractions, and leaves h untouched.
func refDecide(h *Hybrid, in Inputs) (server.Config, []float64) {
	st := h.stateFor(in)
	level := h.profTable.LevelFor(in.PredictedRate)
	na := len(h.table.Actions())
	cells := h.profTable.Entries[level*na : (level+1)*na]
	normal, _ := h.profTable.Lookup(level, server.Normal())
	normalGood := normal.Goodput
	fracs := make([]float64, na)
	for ai := range cells {
		fracs[ai] = in.fraction(cells[ai].Power)
	}
	row := h.table.Row(st)
	bestIdx, bestQ, bestQGood := -1, math.Inf(-1), 0.0
	for ai := range cells {
		c := &cells[ai]
		if fracs[ai] < 0.999 {
			continue
		}
		q := 0.0
		if row != nil {
			q = row[ai]
		}
		if q > bestQ {
			bestIdx, bestQ, bestQGood = ai, q, c.Goodput
		}
	}
	if h.opts.DisableBurnValue {
		if bestIdx < 0 {
			return server.Normal(), fracs
		}
		return h.table.Actions()[bestIdx], fracs
	}
	burnIdx, burnVal := -1, normalGood
	for ai := range cells {
		c := &cells[ai]
		if fracs[ai] <= 0 {
			continue
		}
		f := fracs[ai]
		if v := f*c.Goodput + (1-f)*normalGood; v > burnVal+1e-9 {
			burnIdx, burnVal = ai, v
		}
	}
	switch {
	case bestIdx >= 0 && bestQGood >= burnVal-1e-9:
		return h.table.Actions()[bestIdx], fracs
	case burnIdx >= 0:
		return h.table.Actions()[burnIdx], fracs
	}
	return server.Normal(), fracs
}

// checkDecideMatchesReference runs Decide with a counting SprintFraction
// and checks that no action was probed twice, and that the fractions
// (bit for bit) and the choice equal refDecide's.
func checkDecideMatchesReference(t *testing.T, h *Hybrid, in Inputs) server.Config {
	t.Helper()
	level := h.profTable.LevelFor(in.PredictedRate)
	actions := map[units.Watt]int{}
	for _, ai := range h.byPower[level] {
		actions[h.levelCells(level)[ai].Power]++
	}
	inner := in.SprintFraction
	probes := map[units.Watt]int{}
	in.SprintFraction = func(p units.Watt) float64 {
		probes[p]++
		return inner(p)
	}
	want, wantFracs := refDecide(h, in)
	for p := range probes {
		delete(probes, p)
	}
	got := h.Decide(in)
	for p, n := range probes {
		if n > actions[p] {
			t.Fatalf("power %v probed %d times by %d actions", p, n, actions[p])
		}
	}
	for _, ai := range h.byPower[level] {
		if math.Float64bits(h.fracs[ai]) != math.Float64bits(wantFracs[ai]) {
			t.Fatalf("action %v: fraction %v, all-probe reference %v", h.table.Actions()[ai], h.fracs[ai], wantFracs[ai])
		}
	}
	if got != want {
		t.Fatalf("Decide chose %v, all-probe reference %v", got, want)
	}
	return got
}

// TestHybridDecideProbesOncePerAction checks that Decide asks for the
// sprint fraction of each profiled action at the current level at most
// once, that its fractions and choice equal a Decide that probes every
// action, and that repeating a Decide on the same inputs repeats its
// choice.
func TestHybridDecideProbesOncePerAction(t *testing.T) {
	const epoch = 5 * time.Minute
	green := cluster.REBatt()
	n := green.GreenServers
	// frac is the SprintFraction closure the simulator and the
	// controller build: demand over the alive servers against the
	// predicted green supply, served by a bank drained for drain at
	// 100 W per server so candidate settings span fractions of 0, 1
	// and in between.
	frac := func(t *testing.T, drain time.Duration, alive int) func(units.Watt) float64 {
		bank, err := green.NewBank()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bank.Discharge(units.Watt(100*n), drain); err != nil {
			t.Fatal(err)
		}
		sel := pss.New(bank)
		sel.ObserveSupply(30 * units.Watt(n))
		predGreen := sel.PredictedSupply()
		return func(p units.Watt) float64 {
			return sel.SustainFraction(units.Watt(float64(p)*float64(alive)), predGreen, epoch)
		}
	}
	cases := []struct {
		name  string
		opts  HybridOptions
		drain time.Duration
		alive int
	}{
		{name: "sim", drain: 15 * time.Minute, alive: n},
		{name: "controller-one-down", drain: 16 * time.Minute, alive: n - 1},
		{name: "pure-Q", opts: HybridOptions{DisableBurnValue: true}, drain: 15 * time.Minute, alive: n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := NewHybridWithOptions(specjbb, specTab, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, rate := range []float64{0.3 * burstRate(specjbb), burstRate(specjbb)} {
				var first server.Config
				for rep := 0; rep < 3; rep++ {
					in := inputs(specTab, rate, 130)
					in.SprintFraction = frac(t, tc.drain, tc.alive)
					chosen := checkDecideMatchesReference(t, h, in)
					if rep == 0 {
						first = chosen
					} else if chosen != first {
						t.Fatalf("rate %v: Decide %d chose %v, first chose %v", rate, rep, chosen, first)
					}
				}
			}
		})
	}
}

// TestHybridSortedBandMatchesAllProbes is the property behind the sorted
// band: over random bank states, alive counts, green supplies, budgets,
// load levels and the stuck switch, Decide's fractions and choice equal
// the path that probes all 63 actions. Learning between decisions moves
// the Q rows, so the Q pass sees more than the bootstrap table.
func TestHybridSortedBandMatchesAllProbes(t *testing.T) {
	const epoch = 5 * time.Minute
	green := cluster.REBatt()
	n := green.GreenServers
	rng := rand.New(rand.NewSource(11))
	for _, opts := range []HybridOptions{{}, {DisableBurnValue: true}} {
		h, err := NewHybridWithOptions(specjbb, specTab, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			bank, err := green.NewBank()
			if err != nil {
				t.Fatal(err)
			}
			drainBank(t, rng, bank, n)
			sel := pss.New(bank)
			sel.SetStuck(rng.Intn(8) == 0)
			sel.ObserveSupply(units.Watt(rng.Float64() * 120 * float64(n)))
			predGreen := sel.PredictedSupply()
			alive := 1 + rng.Intn(n)
			in := inputs(specTab, rng.Float64()*1.2*specTab.MaxRate, units.Watt(rng.Float64()*200))
			in.SprintFraction = func(p units.Watt) float64 {
				return sel.SustainFraction(units.Watt(float64(p)*float64(alive)), predGreen, epoch)
			}
			in.AliveFraction = float64(alive) / float64(n)
			chosen := checkDecideMatchesReference(t, h, in)
			h.Learn(Feedback{Chosen: chosen, Supply: in.Budget, Power: in.Budget, Offered: 1, Goodput: 1,
				Latency: rng.Float64() * specjbb.Deadline * 2, Next: in})
		}
	}
}

// drainBank puts a green bank into a random state: anything from full
// to the DoD floor, sometimes with degraded units.
func drainBank(t *testing.T, rng *rand.Rand, bank *battery.ClassBank, n int) {
	t.Helper()
	if rng.Intn(4) == 0 {
		for u := 0; u < bank.Size(); u++ {
			if err := bank.DegradeUnit(u, 0.5+0.5*rng.Float64(), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A drain past the floor stops there with ErrEmpty, which is one
	// of the states wanted.
	drain := time.Duration(rng.Float64() * float64(30*time.Minute))
	if _, err := bank.Discharge(units.Watt(100*n), drain); err != nil && !errors.Is(err, battery.ErrEmpty) {
		t.Fatal(err)
	}
}
