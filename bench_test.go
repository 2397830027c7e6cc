// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to
// end and reports headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both exercises the harness and prints the reproduced numbers next to
// the paper's. The per-figure CSV/text rendering lives in
// cmd/greensprint-bench; these benches measure the experiment cost and
// pin the reproduced values into the benchmark output.
package greensprint

import (
	"testing"
	"time"

	"greensprint/internal/experiments"
	"greensprint/internal/solar"
	"greensprint/internal/sweep"
)

func BenchmarkFig01_DiurnalPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 4 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

func BenchmarkFig05_PowerProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 2 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

func benchGrid(b *testing.B, f func() (*experiments.FigureGrid, error), metric string,
	pick func(*experiments.FigureGrid) float64) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		g, err := f()
		if err != nil {
			b.Fatal(err)
		}
		last = pick(g)
	}
	b.ReportMetric(last, metric)
}

func BenchmarkFig06_SPECjbb_REBatt(b *testing.B) {
	benchGrid(b, experiments.Fig6, "max_gain_x", func(g *experiments.FigureGrid) float64 {
		return g.Value(10*time.Minute, solar.Max, "Hybrid") // paper: ~4.8
	})
}

func BenchmarkFig07_GreenConfigs(b *testing.B) {
	benchGrid(b, experiments.Fig7, "REOnly_Med60m_x", func(g *experiments.FigureGrid) float64 {
		return g.Value(60*time.Minute, solar.Med, "REOnly") // paper: ~2.2 at Med
	})
}

func BenchmarkFig08_WebSearch_RESBatt(b *testing.B) {
	benchGrid(b, experiments.Fig8, "max_gain_x", func(g *experiments.FigureGrid) float64 {
		return g.Value(10*time.Minute, solar.Max, "Hybrid") // paper: ~4.1
	})
}

func BenchmarkFig09_Memcached_RESBatt(b *testing.B) {
	benchGrid(b, experiments.Fig9, "max_gain_x", func(g *experiments.FigureGrid) float64 {
		return g.Value(10*time.Minute, solar.Max, "Hybrid") // paper: ~4.7
	})
}

func BenchmarkFig10a_BurstIntensity(b *testing.B) {
	benchGrid(b, experiments.Fig10a, "Int7_10m_x", func(g *experiments.FigureGrid) float64 {
		return g.Value(10*time.Minute, solar.Med, "Int=7") // paper: ~2.6
	})
}

func BenchmarkFig10b_StrategiesAtInt9(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		vals, err := experiments.Fig10b()
		if err != nil {
			b.Fatal(err)
		}
		gap = vals["Hybrid"] - vals["Greedy"] // paper: Greedy worst
	}
	b.ReportMetric(gap, "hybrid_minus_greedy_x")
}

func BenchmarkFig11_TCO(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		_, crossover = experiments.Fig11()
	}
	b.ReportMetric(crossover, "crossover_h") // paper: ~14
}

func BenchmarkTableI_GreenProvision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.TableI(); len(t.Rows) != 4 {
			b.Fatal("Table I rows")
		}
	}
}

func BenchmarkTableII_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.TableII(); len(t.Rows) != 3 {
			b.Fatal("Table II rows")
		}
	}
}

func BenchmarkHeadlineGains(b *testing.B) {
	var gains map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		gains, err = experiments.HeadlineGains()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gains["SPECjbb"], "specjbb_x")
	b.ReportMetric(gains["Web-Search"], "websearch_x")
	b.ReportMetric(gains["Memcached"], "memcached_x")
}

// benchDoDSweep runs the 8-point DoD ablation with the sweep engine
// pinned to the given worker count (0 = GOMAXPROCS-wide pool). The
// Serial/Parallel pair tracks the engine's speedup in the bench
// trajectory; results are bit-identical between the two by the golden
// determinism tests.
func benchDoDSweep(b *testing.B, workers int) {
	b.Helper()
	prev := sweep.SetDefaultWorkers(workers)
	defer sweep.SetDefaultWorkers(prev)
	dods := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	var last float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.DoDSweep(dods)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(dods) {
			b.Fatalf("points = %d", len(pts))
		}
		last = pts[3].Perf // the paper's 40% DoD operating point
	}
	b.ReportMetric(last, "dod40_perf_x")
}

func BenchmarkDoDSweep8Serial(b *testing.B)   { benchDoDSweep(b, 1) }
func BenchmarkDoDSweep8Parallel(b *testing.B) { benchDoDSweep(b, 0) }

func BenchmarkDayInTheLife(b *testing.B) {
	var sprintHours float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.DayInTheLife()
		if err != nil {
			b.Fatal(err)
		}
		sprintHours = d.SprintHours
	}
	b.ReportMetric(sprintHours, "sprint_h_per_day")
}
