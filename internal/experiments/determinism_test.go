package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"

	"greensprint/internal/sweep"
)

// goldenValue is one labelled float a golden determinism case pins.
type goldenValue struct {
	label string
	v     float64
}

// checkGoldenDeterminism is the determinism golden check: run must
// return bit-identical values run serially twice and under the
// parallel engine with GOMAXPROCS forced to 1, 4 and 8.
func checkGoldenDeterminism(t *testing.T, run func() ([]goldenValue, error)) {
	t.Helper()
	runOnce := func() []goldenValue {
		t.Helper()
		vals, err := run()
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	check := func(label string, got, want []goldenValue) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.label != w.label || math.Float64bits(g.v) != math.Float64bits(w.v) {
				t.Errorf("%s: %s = %v (bits %x), want bit-identical %s = %v (bits %x)",
					label, g.label, g.v, math.Float64bits(g.v), w.label, w.v, math.Float64bits(w.v))
			}
		}
	}

	// Golden reference: two strictly serial runs must agree with each
	// other first.
	prevWorkers := sweep.SetDefaultWorkers(1)
	defer sweep.SetDefaultWorkers(prevWorkers)
	golden := runOnce()
	check("serial rerun", runOnce(), golden)

	sweep.SetDefaultWorkers(0) // back to GOMAXPROCS-wide pools
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		check("GOMAXPROCS="+strconv.Itoa(procs), runOnce(), golden)
	}
}

// TestFig10aGoldenDeterminism pins a full figure grid (Fig10a:
// durations x burst intensities, Hybrid learning in every cell, built
// by runGrid) bit-identical across serial and parallel runs.
func TestFig10aGoldenDeterminism(t *testing.T) {
	checkGoldenDeterminism(t, func() ([]goldenValue, error) {
		g, err := Fig10a()
		if err != nil {
			return nil, err
		}
		var out []goldenValue
		for _, d := range g.Durations {
			for _, level := range g.Levels {
				for _, v := range g.Variants {
					out = append(out, goldenValue{fmt.Sprintf("%v/%v/%s", d, level, v), g.Value(d, level, v)})
				}
			}
		}
		return out, nil
	})
}

// TestDoDSweepGoldenDeterminism pins an ablation sweep (DoD)
// bit-identical across serial and parallel runs.
func TestDoDSweepGoldenDeterminism(t *testing.T) {
	checkGoldenDeterminism(t, func() ([]goldenValue, error) {
		dods := []float64{0.2, 0.4, 0.6, 0.8}
		pts, err := DoDSweep(dods)
		if err != nil {
			return nil, err
		}
		if len(pts) != len(dods) {
			return nil, fmt.Errorf("points = %d", len(pts))
		}
		var out []goldenValue
		for i, p := range pts {
			out = append(out,
				goldenValue{fmt.Sprintf("point %d MaxDoD", i), p.MaxDoD},
				goldenValue{fmt.Sprintf("point %d Perf", i), p.Perf},
				goldenValue{fmt.Sprintf("point %d Cycles", i), p.Cycles},
				goldenValue{fmt.Sprintf("point %d LifetimeCycles", i), p.LifetimeCycles})
		}
		return out, nil
	})
}

// TestSensitivitySeeds pins the CellSeed-derived seed list: stable,
// length-n, and collision-free.
func TestSensitivitySeeds(t *testing.T) {
	a, b := SensitivitySeeds(16), SensitivitySeeds(16)
	if len(a) != 16 {
		t.Fatalf("len = %d", len(a))
	}
	seen := map[int64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d unstable: %d vs %d", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("duplicate seed %d", a[i])
		}
		seen[a[i]] = true
	}
}
