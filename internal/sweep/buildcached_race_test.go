package sweep

import (
	"context"
	"math"
	"testing"

	"greensprint/internal/profile"
	"greensprint/internal/server"
	"greensprint/internal/workload"
)

// TestBuildCachedConcurrent hammers the process-level profile build
// cache from a pool of concurrent sweep workers — the exact access
// pattern parallel figure cells produce — and checks that (a) every
// worker for one workload gets the same shared *Table instance, and
// (b) the shared tables are bit-identical to a freshly built reference.
// Run under -race this doubles as the memoization-layer race check the
// perf PR's acceptance criteria require. It lives in the sweep package
// because profile cannot import sweep (sweep's shard runner already
// depends on sim, which depends on profile).
func TestBuildCachedConcurrent(t *testing.T) {
	profiles := workload.All()
	const perProfile = 32
	useWorkers(t, 8)
	tabs, err := Map(context.Background(), make([]struct{}, perProfile*len(profiles)),
		func(ctx context.Context, i int, _ struct{}) (*profile.Table, error) {
			return profile.BuildCached(profiles[i%len(profiles)], profile.DefaultLevels)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, tab := range tabs {
		first := tabs[i%len(profiles)]
		if tab != first {
			t.Fatalf("cell %d: BuildCached returned a distinct table for %s", i, profiles[i%len(profiles)].Name)
		}
	}
	for pi, p := range profiles {
		ref, err := profile.Build(p, profile.DefaultLevels)
		if err != nil {
			t.Fatal(err)
		}
		got := tabs[pi]
		if len(got.Entries) != len(ref.Entries) {
			t.Fatalf("%s: cached table has %d entries, reference %d", p.Name, len(got.Entries), len(ref.Entries))
		}
		for i := range ref.Entries {
			g, w := got.Entries[i], ref.Entries[i]
			if g.Level != w.Level || g.Cores != w.Cores || g.Freq != w.Freq ||
				math.Float64bits(g.OfferedRate) != math.Float64bits(w.OfferedRate) ||
				math.Float64bits(float64(g.Power)) != math.Float64bits(float64(w.Power)) ||
				math.Float64bits(g.Goodput) != math.Float64bits(w.Goodput) ||
				math.Float64bits(g.NormPerf) != math.Float64bits(w.NormPerf) {
				t.Fatalf("%s entry %d: cached %+v != reference %+v", p.Name, i, g, w)
			}
		}
	}
}

// TestSharedKernelConcurrent requests the process-level kernels from a
// pool of concurrent sweep workers and checks that every worker for one
// workload gets the same kernel, whose values match a fresh one.
func TestSharedKernelConcurrent(t *testing.T) {
	profiles := workload.All()
	const perProfile = 32
	useWorkers(t, 8)
	kernels, err := Map(context.Background(), make([]struct{}, perProfile*len(profiles)),
		func(ctx context.Context, i int, _ struct{}) (*workload.Kernel, error) {
			return workload.SharedKernel(profiles[i%len(profiles)]), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kernels {
		p := profiles[i%len(profiles)]
		if k != kernels[i%len(profiles)] {
			t.Fatalf("cell %d: SharedKernel returned a distinct kernel for %s", i, p.Name)
		}
		if k.Profile() != p {
			t.Fatalf("cell %d: kernel for %s profiles %s", i, p.Name, k.Profile().Name)
		}
	}
	for pi, p := range profiles {
		ref := workload.NewKernel(p)
		for _, c := range server.Configs() {
			if got, want := kernels[pi].MaxGoodput(c), ref.MaxGoodput(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: shared %v, fresh %v", p.Name, c, got, want)
			}
		}
	}
}
