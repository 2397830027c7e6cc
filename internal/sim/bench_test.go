package sim

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

func newBenchHybrid() (strategy.Strategy, error) {
	return strategy.NewHybrid(testProfile, testTable)
}

// benchEngine builds an Engine over the canonical benchmark scenario:
// SPECjbb on RE-Batt under a Med-availability synthetic solar window,
// an 8-hour Int=12 burst so nearly every stepped epoch is a sprinting
// (hot-path) epoch, and the stateful Hybrid strategy — the most
// expensive Decide/Learn pair.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := New(benchConfig(b))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchConfig is benchEngine's Config, with a fresh Hybrid.
func benchConfig(b *testing.B) Config { return benchConfigFor(b, 8*time.Hour) }

// benchConfigFor is benchConfig over a burst and supply window of d.
func benchConfigFor(b *testing.B, d time.Duration) Config {
	b.Helper()
	green := cluster.REBatt()
	supply := solar.Synthesize(solar.Med, d, time.Minute, float64(green.PeakGreen()), 42)
	h, err := newBenchHybrid()
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Workload: testProfile,
		Green:    green,
		Strategy: h,
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
	}
}

// BenchmarkEngineStep measures the steady-state cost of one scheduling
// epoch — the simulator's hot path. The engine (and its stateful
// Hybrid strategy) is rebuilt outside the timer whenever the horizon is
// consumed, so ns/op and allocs/op reflect Step alone. CI enforces an
// allocs/op budget on this benchmark (see BENCH_PR4.json).
func BenchmarkEngineStep(b *testing.B) {
	e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := e.Step()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			e = benchEngine(b)
			b.StartTimer()
		}
	}
}

// BenchmarkEngineStepReplay measures one epoch of a burst that replays
// a jittered diurnal Offered trace with no sink (replayConfig): the
// offered rate moves every epoch, so unlike BenchmarkEngineStep's
// square burst each epoch re-runs the sojourn bisection for the
// settings it looks up. The engine is rebuilt outside the timer when
// its day is consumed.
func BenchmarkEngineStepReplay(b *testing.B) { benchReplay(b, nil) }

// BenchmarkEngineStepReplayEvents is BenchmarkEngineStepReplay with
// every epoch's event line rendered by a JSONL sink into io.Discard:
// the stepping layers plus the event encoder. One sink serves every
// rebuilt engine, as one would serve a long run.
func BenchmarkEngineStepReplayEvents(b *testing.B) { benchReplay(b, obs.NewJSONL(io.Discard)) }

// benchReplay steps replayConfig engines emitting to sink, which may
// be nil.
func benchReplay(b *testing.B, sink obs.Sink) {
	newEngine := func() *Engine {
		cfg := replayConfig(b, 1)
		cfg.Sink = sink
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	e := newEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := e.Step()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			e = newEngine()
			b.StartTimer()
		}
	}
}

// BenchmarkEngineNew measures engine construction (including the
// workload kernel build), the one-time cost the Step memoization
// front-loads.
func BenchmarkEngineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchEngine(b)
	}
}

// BenchmarkCheckpointEncode measures a checkpoint cut every epoch:
// after one Step outside the timer, which has the Hybrid learn one Q
// row, Checkpoint and Encode run timed. The engine is rebuilt outside
// the timer when its horizon is consumed, so the record list the
// checkpoint carries cycles through the run's length.
func BenchmarkCheckpointEncode(b *testing.B) {
	e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, ok, err := e.Step(); err != nil {
			b.Fatal(err)
		} else if !ok {
			e = benchEngine(b)
		}
		b.StartTimer()
		cp, err := e.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cp.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointWriteFile measures one save of a run checkpointed
// every epoch, as perfbench's checkpoint_resume and greensprint-sim
// -checkpoint cut them: after one Step of a two-day Hybrid run outside
// the timer, Checkpoint and WriteFile run timed. The engine is rebuilt
// outside the timer when its run is used up, so the saved record list
// cycles through the two days' 576 epochs.
func BenchmarkCheckpointWriteFile(b *testing.B) {
	newEngine := func() *Engine {
		e, err := New(benchConfigFor(b, 48*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	e := newEngine()
	path := filepath.Join(b.TempDir(), "sim.ckpt")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, ok, err := e.Step(); err != nil {
			b.Fatal(err)
		} else if !ok {
			e = newEngine()
		}
		b.StartTimer()
		cp, err := e.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if err := cp.WriteFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointResume measures a crash resume from a Hybrid
// checkpoint cut halfway through benchEngine's run: DecodeCheckpoint,
// New and Restore run timed; building the Config and its fresh Hybrid
// does not.
func BenchmarkCheckpointResume(b *testing.B) {
	e := benchEngine(b)
	if _, err := e.StepN(e.TotalEpochs() / 2); err != nil {
		b.Fatal(err)
	}
	cp, err := e.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	raw, err := cp.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchConfig(b)
		b.StartTimer()
		cp, err := DecodeCheckpoint(raw)
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Restore(cp); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleetEngine builds an Engine over a generated fleet of total
// servers split across the given class count: class 0 is the default
// profile, the rest step their sprint envelope up in 1 W increments so
// every class carries its own profiling table and kernel.
func benchFleetEngine(b *testing.B, total, classes int) *Engine {
	b.Helper()
	tpls := make([]fleet.Template, classes)
	for i := range tpls {
		tpls[i] = fleet.Template{
			Name:      fmt.Sprintf("class%02d", i),
			Weight:    1,
			BatteryAh: 10,
			Panels:    3,
		}
		if i > 0 {
			tpls[i].PeakPower = testProfile.PeakPower + units.Watt(i)
		}
	}
	spec := &fleet.Spec{
		Name:         "bench",
		TotalServers: total,
		RackSize:     20,
		Seed:         7,
		Templates:    tpls,
	}
	topo, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	d := 12 * time.Hour
	lead, tail := 6*time.Hour, 6*time.Hour
	supply := solar.Synthesize(solar.Med, lead+d+tail, time.Minute, float64(topo.PeakGreen()), 42)
	h, err := newBenchHybrid()
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{
		Workload: testProfile,
		Green:    cluster.REBatt(),
		Fleet:    spec,
		Strategy: h,
		Table:    testTable,
		Epoch:    time.Minute,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchFleetDay runs complete simulated days (1440 one-minute epochs)
// over a generated fleet — the headline fleet-scale benchmark. The
// structure-of-arrays core makes one day O(epochs × classes), not
// O(epochs × servers), so the 10k-server day costs roughly what the
// 3-server day does.
func benchFleetDay(b *testing.B, total, classes int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchFleetEngine(b, total, classes)
		if e.TotalEpochs() != 1440 {
			b.Fatalf("horizon = %d epochs, want 1440", e.TotalEpochs())
		}
		for {
			_, ok, err := e.Step()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}

// BenchmarkFleetDay10k is the headline: one full simulated day for a
// 10,000-server single-class fleet. CI compares it against the budget
// in BENCH_PR7.json.
func BenchmarkFleetDay10k(b *testing.B) { benchFleetDay(b, 10_000, 1) }

// BenchmarkFleetDay10k50Classes is the heterogeneity stress: the same
// 10,000 servers across 50 distinct classes, each with its own table
// and kernel — per-epoch cost scales with classes, not servers.
func BenchmarkFleetDay10k50Classes(b *testing.B) { benchFleetDay(b, 10_000, 50) }

// benchYearEngine builds a whole-year replay: 525,600 one-minute
// epochs with a single day-long burst in the middle of the year —
// ROADMAP item 5's canonical scenario, where virtually every epoch is
// idle and rides StepN's hoisted fast segment.
func benchYearEngine(b *testing.B, spec *fleet.Spec) *Engine {
	b.Helper()
	const year = 365 * 24 * time.Hour
	d := 24 * time.Hour
	lead := year/2 - d/2
	tail := year - lead - d
	green := cluster.REBatt()
	peak := float64(green.PeakGreen())
	if spec != nil {
		topo, err := spec.Generate()
		if err != nil {
			b.Fatal(err)
		}
		peak = float64(topo.PeakGreen())
	}
	supply := solar.Synthesize(solar.Med, year, time.Minute, peak, 42)
	h, err := newBenchHybrid()
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{
		Workload: testProfile,
		Green:    green,
		Fleet:    spec,
		Strategy: h,
		Table:    testTable,
		Epoch:    time.Minute,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchYear drives one whole simulated year through StepN. The budget
// for these lives in BENCH_PR9.json; run with -benchtime=1x in CI.
func benchYear(b *testing.B, spec *fleet.Spec) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchYearEngine(b, spec)
		total := e.TotalEpochs()
		if total != 525_600 {
			b.Fatalf("horizon = %d epochs, want 525600", total)
		}
		b.StartTimer()
		ran, err := e.StepN(total)
		if err != nil {
			b.Fatal(err)
		}
		if ran != total {
			b.Fatalf("ran %d of %d epochs", ran, total)
		}
	}
}

// BenchmarkYearSingleCell is ROADMAP item 5's target: a whole-year
// (525,600-epoch) single-cell replay, budgeted at low single-digit
// seconds in BENCH_PR9.json.
func BenchmarkYearSingleCell(b *testing.B) { benchYear(b, nil) }

// BenchmarkFleetYear10k is the year-scale fleet headline: 525,600
// one-minute epochs over the 10,000-server single-class fleet.
func BenchmarkFleetYear10k(b *testing.B) {
	benchYear(b, &fleet.Spec{
		Name:         "bench",
		TotalServers: 10_000,
		RackSize:     20,
		Seed:         7,
		Templates: []fleet.Template{
			{Name: "class00", Weight: 1, BatteryAh: 10, Panels: 3},
		},
	})
}
