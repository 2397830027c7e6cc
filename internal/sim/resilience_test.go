// Golden resilience suite: one fixture chaos.Schedule and one expected
// JSONL event stream per failure mode under testdata/, regenerated with
// -update. The suite mirrors sweep.TestEventStreamGolden for chaos
// runs: the stream must be bit-identical across repeated runs, across
// GOMAXPROCS 1/4/8, and across 2/4-window sharded resume through
// sweep.ShardedRun — and the sharded Result must equal the sequential
// one field for field.
//
// The file is an external test (package sim_test) so it can drive
// sweep.ShardedRun without an import cycle while keeping the fixtures
// in internal/sim/testdata as the engine's own contract.
package sim_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/profile"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/sweep"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the chaos golden fixtures under testdata/")

// resilienceCases pins one golden per failure mode. Most run under
// Pacing (whose EWMA predictor carries state across shard boundaries);
// server-crash runs under the Q-learning Hybrid so the golden also
// covers learning state surviving a crash-recovery cycle.
var resilienceCases = []struct {
	name     string
	spec     string
	mode     chaos.Mode
	strat    string
	recovers bool
}{
	{"server-crash", "crash=5", chaos.ServerCrash, "Hybrid", true},
	{"pss-stuck", "stuck=5", chaos.PSSStuck, "Pacing", true},
	{"battery-degrade", "degrade=5", chaos.BatteryDegrade, "Pacing", false},
	{"solar-dropout", "solar=5:2-5", chaos.SolarDropout, "Pacing", true},
	{"breaker-trip", "breaker=5", chaos.BreakerTrip, "Pacing", true},
	{"zone-outage", "zone=5", chaos.ZoneOutage, "Pacing", true},
}

var (
	resilienceProfile = workload.SPECjbb()
	resilienceTable   *profile.Table
)

func init() {
	var err error
	resilienceTable, err = profile.Build(resilienceProfile, profile.DefaultLevels)
	if err != nil {
		panic(err)
	}
}

// resilienceConfig mirrors the sweep package's shardConfig — the RE-
// Batt rack (3 green servers, 3 battery units), a 10 m lead / 60 m
// burst / 15 m tail replay (17 epochs), seeded synthetic solar — with
// the chaos schedule attached. Each call builds a fresh strategy
// instance: sharded and sequential runs must not share mutable state.
func resilienceConfig(t *testing.T, strat string, sched *chaos.Schedule) sim.Config {
	t.Helper()
	d := 60 * time.Minute
	lead, tail := 10*time.Minute, 15*time.Minute
	green := cluster.REBatt()
	supply := solar.Synthesize(solar.Med, lead+d+tail, time.Minute, float64(green.PeakGreen()), 42)
	cfg := sim.Config{
		Workload: resilienceProfile,
		Green:    green,
		Table:    resilienceTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
		Chaos:    sched,
	}
	switch strat {
	case "Hybrid":
		h, err := strategy.NewHybrid(resilienceProfile, resilienceTable)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = h
	case "Pacing":
		cfg.Strategy = strategy.Pacing{}
		peak := resilienceProfile.IntensityRate(12)
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

const resilienceEpochs = 17 // (10 m lead + 60 m burst + 15 m tail) / 5 m epoch

// searchResilienceSchedule deterministically searches seeds for a
// single-mode timeline whose first fault strikes a few epochs in and —
// when the mode recovers at all — heals before the run ends, so the
// golden pins a complete fault→recovery cycle. Only -update runs it;
// normal runs load the committed fixture.
func searchResilienceSchedule(t *testing.T, spec string, mode chaos.Mode, recovers bool) *chaos.Schedule {
	t.Helper()
	p, err := chaos.ParseProfile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 1000; seed++ {
		s, err := p.Resolve(seed, resilienceEpochs, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range s.Faults {
			if f.Mode != mode || f.Cascade {
				continue
			}
			if f.Epoch < 1 || f.Epoch > resilienceEpochs-4 {
				continue
			}
			if recovers && (f.Recover == 0 || f.Recover > resilienceEpochs-1) {
				continue
			}
			return s
		}
	}
	t.Fatalf("no seed under 1000 yields a usable %v fault", mode)
	return nil
}

// runResilience runs one replay with a JSONL sink — sequentially,
// sharded, or (windows == batchedRun) as a single whole-run StepN
// batch — and returns the byte stream plus the Result.
func runResilience(t *testing.T, cfg sim.Config, windows int) ([]byte, *sim.Result) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Sink = obs.NewJSONL(&buf)
	var (
		res *sim.Result
		err error
	)
	switch {
	case windows == batchedRun:
		var e *sim.Engine
		if e, err = sim.New(cfg); err == nil {
			_, err = e.StepN(e.TotalEpochs())
			res = e.Result()
		}
	case windows <= 1:
		res, err = sim.Run(context.Background(), cfg)
	default:
		res, err = sweep.ShardedRun(context.Background(), cfg, windows)
	}
	if err != nil {
		t.Fatalf("windows=%d: %v", windows, err)
	}
	return buf.Bytes(), res
}

// batchedRun is the runResilience windows sentinel selecting the
// single-batch StepN path.
const batchedRun = -1

func resilienceFixture(name string) (schedule, events string) {
	return filepath.Join("testdata", "chaos_"+name+".json"),
		filepath.Join("testdata", "chaos_"+name+".events.jsonl")
}

// TestChaosGoldenResilience is the per-mode golden recovery regression.
func TestChaosGoldenResilience(t *testing.T) {
	for _, tc := range resilienceCases {
		t.Run(tc.name, func(t *testing.T) {
			schedPath, eventsPath := resilienceFixture(tc.name)

			var sched *chaos.Schedule
			if *updateGolden {
				sched = searchResilienceSchedule(t, tc.spec, tc.mode, tc.recovers)
				sched.Source = tc.spec
				b, err := json.MarshalIndent(sched, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(schedPath, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				b, err := os.ReadFile(schedPath)
				if err != nil {
					t.Fatalf("%v (regenerate with go test -run TestChaosGoldenResilience -update)", err)
				}
				sched = new(chaos.Schedule)
				if err := json.Unmarshal(b, sched); err != nil {
					t.Fatal(err)
				}
			}
			if err := sched.Validate(); err != nil {
				t.Fatalf("fixture schedule invalid: %v", err)
			}
			if sched.Epochs != resilienceEpochs || sched.Servers != 3 || sched.Units != 3 {
				t.Fatalf("fixture resolved for %d epochs / %d servers / %d units, want %d/3/3",
					sched.Epochs, sched.Servers, sched.Units, resilienceEpochs)
			}

			mkCfg := func() sim.Config {
				cfg := resilienceConfig(t, tc.strat, sched)
				if tc.mode == chaos.BreakerTrip {
					cfg.AllowBreakerOverdraw = true
				}
				return cfg
			}

			stream, seq := runResilience(t, mkCfg(), 1)
			if *updateGolden {
				if err := os.WriteFile(eventsPath, stream, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				want, err := os.ReadFile(eventsPath)
				if err != nil {
					t.Fatalf("%v (regenerate with go test -run TestChaosGoldenResilience -update)", err)
				}
				if !bytes.Equal(stream, want) {
					t.Fatalf("event stream differs from golden %s", eventsPath)
				}
			}
			assertChaosStream(t, stream, tc.mode, tc.recovers)

			// Bit-identity: repeated run, then across GOMAXPROCS.
			if again, _ := runResilience(t, mkCfg(), 1); !bytes.Equal(again, stream) {
				t.Error("repeated sequential run emitted a different stream")
			}
			for _, procs := range []int{1, 4, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got, _ := runResilience(t, mkCfg(), 1)
				runtime.GOMAXPROCS(prev)
				if !bytes.Equal(got, stream) {
					t.Errorf("GOMAXPROCS=%d: stream differs from golden", procs)
				}
			}

			// Whole-run StepN batch: the idle fast path must reproduce
			// the golden bytes exactly.
			if got, res := runResilience(t, mkCfg(), batchedRun); !bytes.Equal(got, stream) {
				t.Error("batched StepN run emitted a different stream")
			} else {
				assertEqualResults(t, batchedRun, seq, res)
			}

			// Sharded resume: same bytes and the same Result.
			for _, windows := range []int{2, 4} {
				got, res := runResilience(t, mkCfg(), windows)
				if !bytes.Equal(got, stream) {
					t.Errorf("%d windows: sharded stream differs from sequential", windows)
				}
				assertEqualResults(t, windows, seq, res)
			}
		})
	}
}

// assertChaosStream checks the golden's shape: interleaved chaos lines
// of the right mode (at least one fault, and a recovery when the mode
// recovers), plus exactly one record per epoch in order.
func assertChaosStream(t *testing.T, stream []byte, mode chaos.Mode, recovers bool) {
	t.Helper()
	var epochs, faults, recoveries int
	sc := bufio.NewScanner(bytes.NewReader(stream))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Chaos {
		case "":
			if ev.Epoch != epochs {
				t.Errorf("epoch record %d arrived at position %d", ev.Epoch, epochs)
			}
			epochs++
		case "fault":
			if ev.ChaosMode == mode.String() {
				faults++
			}
		case "recover":
			if ev.ChaosMode == mode.String() {
				recoveries++
			}
		default:
			t.Errorf("unknown chaos kind %q", ev.Chaos)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if epochs != resilienceEpochs {
		t.Errorf("epoch records = %d, want %d", epochs, resilienceEpochs)
	}
	if faults == 0 {
		t.Errorf("golden has no %v fault line", mode)
	}
	if recovers && recoveries == 0 {
		t.Errorf("golden has no %v recovery line", mode)
	}
}

// assertEqualResults compares the full Result surface the sharding
// contract promises: every EpochRecord and each aggregate.
func assertEqualResults(t *testing.T, windows int, seq, got *sim.Result) {
	t.Helper()
	if len(got.Records) != len(seq.Records) {
		t.Fatalf("%d windows: records = %d, want %d", windows, len(got.Records), len(seq.Records))
	}
	for i := range seq.Records {
		if got.Records[i] != seq.Records[i] {
			t.Errorf("%d windows: record %d differs:\nseq   %+v\nshard %+v",
				windows, i, seq.Records[i], got.Records[i])
		}
	}
	if got.MeanNormPerf != seq.MeanNormPerf {
		t.Errorf("%d windows: MeanNormPerf = %v, want %v", windows, got.MeanNormPerf, seq.MeanNormPerf)
	}
	if got.Account != seq.Account {
		t.Errorf("%d windows: Account = %+v, want %+v", windows, got.Account, seq.Account)
	}
	if got.BatteryCycles != seq.BatteryCycles {
		t.Errorf("%d windows: BatteryCycles = %v, want %v", windows, got.BatteryCycles, seq.BatteryCycles)
	}
}
