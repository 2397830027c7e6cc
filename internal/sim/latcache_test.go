package sim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/server"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/workload"
)

// replayConfig is a burst spanning days of the Figure 1 diurnal load,
// replayed as an Offered trace with a deterministic ±5% per-minute
// jitter, so the offered rate — and with it every latency lookup's
// key — moves every epoch. The strategy is a fresh Hybrid.
func replayConfig(tb testing.TB, days int) Config {
	tb.Helper()
	scfg := solar.DefaultGeneratorConfig()
	scfg.Days = days
	scfg.Seed = 42
	sun, err := solar.Generate(scfg)
	if err != nil {
		tb.Fatal(err)
	}
	load := workload.DiurnalPattern(scfg.Start, time.Minute).Repeat(days)
	for i := range load.Samples {
		load.Samples[i] *= 1 + 0.05*math.Sin(float64(i)*12.9898)
	}
	h, err := strategy.NewHybrid(testProfile, testTable)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Workload: testProfile,
		Green:    cluster.REBatt(),
		Strategy: h,
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: time.Duration(days) * 24 * time.Hour},
		Supply:   sun,
		Offered:  load.Scale(testProfile.MaxGoodput(server.Normal())),
	}
}

func (e *Engine) latCacheLen() int {
	n := 0
	for _, l := range e.lat {
		if l.ok {
			n++
		}
	}
	return n
}

// TestLatencyCacheBoundedOnReplay steps a replayed-Offered day, where
// no (config, offered) pair repeats, and checks the latency cache
// stays within one entry per knob setting and that no epoch allocates.
// The malloc count is process-wide, so an epoch that reads as
// allocating is measured again on a fresh twin restored from a
// checkpoint cut just before it: an allocation on another goroutine
// does not repeat there, an allocation of Step's own does.
func TestLatencyCacheBoundedOnReplay(t *testing.T) {
	e := mustNew(t, replayConfig(t, 1))
	steps := 0
	for !e.Done() {
		cp, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if stepAllocs(t, e) != 0 {
			twin := mustNew(t, replayConfig(t, 1))
			if err := twin.Restore(cp); err != nil {
				t.Fatal(err)
			}
			if n := stepAllocs(t, twin); n != 0 {
				t.Fatalf("epoch %d: Step allocated %d times", e.EpochIndex(), n)
			}
		}
		steps++
		if n := e.latCacheLen(); n > server.NumConfigs() {
			t.Fatalf("epoch %d: latency cache holds %d entries, want <= %d", e.EpochIndex(), n, server.NumConfigs())
		}
	}
	if steps != 288 {
		t.Fatalf("stepped %d epochs, want 288", steps)
	}
}

// stepAllocs steps e once and returns the mallocs the process made
// meanwhile.
func stepAllocs(t *testing.T, e *Engine) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := e.Step()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}
