package strategy

import (
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/units"
)

// TestHybridDecideProbesOncePerAction checks that Decide asks for the
// sprint fraction of every profiled action at the current level exactly
// once — one probe per action, shared by the Q pass and the burn pass —
// and that repeating a Decide on the same inputs repeats its choice.
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
				level := specTab.LevelFor(rate)
				want := map[units.Watt]int{}
				for _, c := range server.Configs() {
					if e, ok := specTab.Lookup(level, c); ok {
						want[e.Power]++
					}
				}
				inner := frac(t, tc.drain, tc.alive)
				var first server.Config
				for rep := 0; rep < 3; rep++ {
					got := map[units.Watt]int{}
					in := inputs(specTab, rate, 130)
					in.SprintFraction = func(p units.Watt) float64 {
						got[p]++
						return inner(p)
					}
					chosen := h.Decide(in)
					if len(got) != len(want) {
						t.Fatalf("rate %v: probed %d distinct powers, want %d", rate, len(got), len(want))
					}
					for p, k := range want {
						if got[p] != k {
							t.Fatalf("rate %v: power %v probed %d times, want %d", rate, p, got[p], k)
						}
					}
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
