package sweep

import (
	"context"
	"errors"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/fleet"
	"greensprint/internal/profile"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

var (
	shardProfile = workload.SPECjbb()
	shardTable   *profile.Table
)

func init() {
	var err error
	shardTable, err = profile.Build(shardProfile, profile.DefaultLevels)
	if err != nil {
		panic(err)
	}
}

// shardConfig builds one replay config with a fresh strategy instance
// per call (sharded and sequential runs must not share mutable strategy
// state). The run mixes idle and burst epochs and, for Pacing, replays
// an offered-rate ramp so the EWMA workload predictor carries state
// across the shard boundary too.
func shardConfig(t *testing.T, strat string) sim.Config {
	t.Helper()
	d := 60 * time.Minute
	lead, tail := 10*time.Minute, 15*time.Minute
	green := cluster.REBatt()
	supply := solar.Synthesize(solar.Med, lead+d+tail, time.Minute, float64(green.PeakGreen()), 42)
	cfg := sim.Config{
		Workload: shardProfile,
		Green:    green,
		Table:    shardTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
	}
	switch strat {
	case "Hybrid":
		h, err := strategy.NewHybrid(shardProfile, shardTable)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = h
	case "Pacing":
		cfg.Strategy = strategy.Pacing{}
		peak := shardProfile.IntensityRate(12)
		n := int((lead + d + tail) / time.Minute)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = peak * (0.4 + 0.6*float64(i)/float64(n-1))
		}
		cfg.Offered = trace.New("offered", supply.Start, time.Minute, samples)
	default:
		t.Fatalf("unknown strategy %q", strat)
	}
	return cfg
}

// TestShardedRunMatchesSequential is the golden determinism test for
// the checkpoint hand-off: splitting a replay into 2 or 4 windows
// chained through serialized sim.Checkpoints must reproduce the
// sequential run bit for bit — the full EpochRecord stream and every
// Result aggregate — including for the stateful Q-learning Hybrid.
func TestShardedRunMatchesSequential(t *testing.T) {
	for _, strat := range []string{"Pacing", "Hybrid"} {
		seq, err := sim.Run(context.Background(), shardConfig(t, strat))
		if err != nil {
			t.Fatal(err)
		}
		for _, windows := range []int{2, 4} {
			got, err := ShardedRun(context.Background(), shardConfig(t, strat), windows)
			if err != nil {
				t.Fatalf("%s/%d windows: %v", strat, windows, err)
			}
			if len(got.Records) != len(seq.Records) {
				t.Fatalf("%s/%d windows: records = %d, want %d",
					strat, windows, len(got.Records), len(seq.Records))
			}
			for i := range seq.Records {
				if got.Records[i] != seq.Records[i] {
					t.Errorf("%s/%d windows: record %d differs:\nseq   %+v\nshard %+v",
						strat, windows, i, seq.Records[i], got.Records[i])
				}
			}
			if got.MeanNormPerf != seq.MeanNormPerf {
				t.Errorf("%s/%d windows: MeanNormPerf = %v, want %v",
					strat, windows, got.MeanNormPerf, seq.MeanNormPerf)
			}
			if got.Account != seq.Account {
				t.Errorf("%s/%d windows: Account = %+v, want %+v",
					strat, windows, got.Account, seq.Account)
			}
			if got.BatteryCycles != seq.BatteryCycles {
				t.Errorf("%s/%d windows: BatteryCycles = %v, want %v",
					strat, windows, got.BatteryCycles, seq.BatteryCycles)
			}
		}
	}
}

// fleetDayConfig builds a full simulated day (1440 one-minute epochs)
// over a generated 10,000-server three-class fleet — the fleet-scale
// shape the structure-of-arrays engine core exists for.
func fleetDayConfig(t *testing.T) sim.Config {
	t.Helper()
	spec := &fleet.Spec{
		Name:         "shardfleet",
		TotalServers: 10_000,
		RackSize:     20,
		Seed:         7,
		Templates: []fleet.Template{
			{Name: "web", Weight: 5, BatteryAh: 10, Panels: 3},
			{Name: "batch", Weight: 3, PeakPower: 250, BatteryAh: 3.2, Panels: 2},
			{Name: "archive", Weight: 2},
		},
	}
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	d := 12 * time.Hour
	lead, tail := 6*time.Hour, 6*time.Hour
	supply := solar.Synthesize(solar.Med, lead+d+tail, time.Minute, float64(topo.PeakGreen()), 42)
	h, err := strategy.NewHybrid(shardProfile, shardTable)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Workload: shardProfile,
		Green:    cluster.REBatt(),
		Fleet:    spec,
		Strategy: h,
		Table:    shardTable,
		Epoch:    time.Minute,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
	}
}

// TestShardedFleetDayMatchesSequential shards a 10,000-server
// simulated day through the v4 checkpoint hand-off and demands the
// stitched run reproduce the sequential one bit for bit — records,
// aggregates and the per-class energy counters that only exist in
// fleet mode.
func TestShardedFleetDayMatchesSequential(t *testing.T) {
	seq, err := sim.Run(context.Background(), fleetDayConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, windows := range []int{3} {
		got, err := ShardedRun(context.Background(), fleetDayConfig(t), windows)
		if err != nil {
			t.Fatalf("%d windows: %v", windows, err)
		}
		if len(got.Records) != len(seq.Records) {
			t.Fatalf("%d windows: records = %d, want %d", windows, len(got.Records), len(seq.Records))
		}
		for i := range seq.Records {
			if got.Records[i] != seq.Records[i] {
				t.Fatalf("%d windows: record %d differs:\nseq   %+v\nshard %+v",
					windows, i, seq.Records[i], got.Records[i])
			}
		}
		if got.MeanNormPerf != seq.MeanNormPerf || got.Account != seq.Account || got.BatteryCycles != seq.BatteryCycles {
			t.Errorf("%d windows: aggregates differ", windows)
		}
		if len(got.ClassEnergyWh) != len(seq.ClassEnergyWh) {
			t.Fatalf("%d windows: %d class energy counters, want %d",
				windows, len(got.ClassEnergyWh), len(seq.ClassEnergyWh))
		}
		for i := range seq.ClassEnergyWh {
			if got.ClassEnergyWh[i] != seq.ClassEnergyWh[i] {
				t.Errorf("%d windows: class %d energy = %v, want %v",
					windows, i, got.ClassEnergyWh[i], seq.ClassEnergyWh[i])
			}
		}
		if got.ClassFleet.Transitions() != seq.ClassFleet.Transitions() {
			t.Errorf("%d windows: transitions = %d, want %d",
				windows, got.ClassFleet.Transitions(), seq.ClassFleet.Transitions())
		}
	}
}

// TestShardedRunDegenerateWindows covers the edges: one window is the
// plain sequential run, and a window count beyond the epoch count is
// clamped rather than producing empty shards.
func TestShardedRunDegenerateWindows(t *testing.T) {
	seq, err := sim.Run(context.Background(), shardConfig(t, "Pacing"))
	if err != nil {
		t.Fatal(err)
	}
	for _, windows := range []int{0, 1, 1000} {
		got, err := ShardedRun(context.Background(), shardConfig(t, "Pacing"), windows)
		if err != nil {
			t.Fatalf("windows=%d: %v", windows, err)
		}
		if len(got.Records) != len(seq.Records) || got.MeanNormPerf != seq.MeanNormPerf {
			t.Errorf("windows=%d: %d records perf %v, want %d records perf %v",
				windows, len(got.Records), got.MeanNormPerf, len(seq.Records), seq.MeanNormPerf)
		}
	}
}

// TestShardedRunCancellation propagates ctx.Err() out of a mid-replay
// cancellation.
func TestShardedRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ShardedRun(ctx, shardConfig(t, "Pacing"), 3)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("ShardedRun(cancelled) = %v, %v; want nil, context.Canceled", res, err)
	}
}

// TestMapCancellationStopsMidRun extends the mid-sweep cancellation
// test down into the simulation layer: a cell cancelling the sweep's
// context stops the sim.Run inside every other cell at an epoch
// boundary, and ctx.Err() surfaces through Map.
func TestMapCancellationStopsMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	useWorkers(t, 2)
	_, err := Map(ctx, []int{0, 1, 2, 3}, func(ctx context.Context, i, _ int) (*sim.Result, error) {
		if i == 0 {
			cancel()
		}
		return sim.Run(ctx, shardConfig(t, "Pacing"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
