package strategy

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"greensprint/internal/profile"
	"greensprint/internal/rl"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// seedCase is one seed key on one profiling table.
type seedCase struct {
	name string
	p    workload.Profile
	opts HybridOptions
}

var seedCases = []seedCase{
	{"SPECjbb", specjbb, HybridOptions{}},
	{"SPECjbb/literal", specjbb, HybridOptions{LiteralReward: true}},
	{"SPECjbb/step10", specjbb, HybridOptions{QuantizationStep: 0.1}},
	{"Web-Search", webSrch, HybridOptions{}},
	{"Memcached", memcache, HybridOptions{DisableBurnValue: true}},
}

// freshTable profiles p into a table no Hybrid has been built from, so
// the first NewHybrid on it bootstraps whichever tests ran before.
func freshTable(t testing.TB, p workload.Profile) *profile.Table {
	t.Helper()
	tab, err := profile.Build(p, profile.DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sameRows fails unless got and want hold the same states with
// bitwise-equal Q values. It only reads both tables.
func sameRows(t *testing.T, what string, got, want *rl.Table, h *Hybrid) {
	t.Helper()
	if got.States() != want.States() {
		t.Fatalf("%s: %d states, want %d", what, got.States(), want.States())
	}
	for pl := 0; pl < h.quantizer.Levels(); pl++ {
		for ll := 0; ll < h.profTable.Levels; ll++ {
			for d := 0; d < rl.DegradedLevels; d++ {
				st := rl.State{PowerLevel: pl, LoadLevel: ll, Degraded: d}
				g, w := got.Row(st), want.Row(st)
				if !slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) || (g == nil) != (w == nil) {
					t.Fatalf("%s: state %+v row %v, want %v", what, st, g, w)
				}
			}
		}
	}
}

func saveQ(t *testing.T, h *Hybrid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.SaveQ(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHybridWarmBuildEqualsCold checks that a Hybrid built from the
// shared per-key seed equals one bootstrapped from scratch, and that
// learning in one Hybrid reaches neither the seed nor its siblings.
func TestHybridWarmBuildEqualsCold(t *testing.T) {
	for _, c := range seedCases {
		t.Run(c.name, func(t *testing.T) {
			tab := freshTable(t, c.p)
			first, err := NewHybridWithOptions(c.p, tab, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := NewHybridWithOptions(c.p, tab, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.hybridSeed != first.hybridSeed {
				t.Fatal("a second build from the same key bootstrapped its own seed")
			}
			cold, err := bootstrap(seedKey{profile: c.p, quant: warm.quantizer, literal: c.opts.LiteralReward}, tab)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "warm table", warm.table, cold.seed, warm)
			sameRows(t, "shared seed", warm.seed, cold.seed, warm)
			if !reflect.DeepEqual(warm.cells, cold.cells) || !reflect.DeepEqual(warm.byPower, cold.byPower) || warm.normalIdx != cold.normalIdx {
				t.Fatal("shared cells, byPower or normalIdx differ from a cold bootstrap's")
			}
			var coldQ bytes.Buffer
			if err := cold.seed.WriteJSON(&coldQ); err != nil {
				t.Fatal(err)
			}
			if got := saveQ(t, warm); !bytes.Equal(got, coldQ.Bytes()) {
				t.Fatal("warm SaveQ differs from a cold bootstrap's")
			}
			snap, err := warm.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(snap, []byte(`"states":null`)) {
				t.Fatalf("fresh Hybrid snapshot lists states: %s", snap)
			}

			// first learns, including a degraded row; neither the seed
			// nor warm may see it.
			for i := 0; i < 6; i++ {
				in := inputs(tab, c.p.IntensityRate(12), units.Watt(100+10*i))
				if i%2 == 1 {
					in.AliveFraction = 0.5
				}
				learnIn(first, in)
			}
			learned, err := first.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(learned, []byte(`"states":null`)) {
				t.Fatal("learning left the table equal to its seed")
			}
			sameRows(t, "seed after a sibling learned", warm.seed, cold.seed, warm)
			sameRows(t, "sibling after a sibling learned", warm.table, cold.seed, warm)
			restored, err := NewHybridWithOptions(c.p, tab, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreState(learned); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveQ(t, restored), saveQ(t, first)) {
				t.Fatal("restored sibling's SaveQ differs from the learner's")
			}
			sameRows(t, "seed after a restore", warm.seed, cold.seed, warm)
			sameRows(t, "sibling after a restore", warm.table, cold.seed, warm)
		})
	}
}

// TestNewHybridConcurrent builds Hybrids for the same keys and for
// different keys from many goroutines at once, all starting on tables
// no Hybrid was built from; under -race it checks the shared seed is
// only read. Each build's SaveQ and first Decide must equal a serial
// build's, and every build of one key must share one seed.
func TestNewHybridConcurrent(t *testing.T) {
	const perCase = 8
	type want struct {
		saveQ  []byte
		decide string
	}
	decideIn := func(tab *profile.Table, p workload.Profile) Inputs {
		return inputs(tab, p.IntensityRate(10), 130)
	}
	serial := make([]want, len(seedCases))
	tabs := map[string]*profile.Table{}
	for i, c := range seedCases {
		tab := freshTable(t, c.p)
		h, err := NewHybridWithOptions(c.p, tab, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = want{saveQ(t, h), h.Decide(decideIn(tab, c.p)).String()}
		if tabs[c.p.Name] == nil {
			tabs[c.p.Name] = freshTable(t, c.p)
		}
	}

	built := make([]*Hybrid, perCase*len(seedCases))
	got := make([]want, len(built))
	errs := make([]error, len(built))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range built {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c := seedCases[i%len(seedCases)]
			tab := tabs[c.p.Name]
			h, err := NewHybridWithOptions(c.p, tab, c.opts)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if errs[i] = h.SaveQ(&buf); errs[i] != nil {
				return
			}
			built[i], got[i] = h, want{buf.Bytes(), h.Decide(decideIn(tab, c.p)).String()}
		}()
	}
	close(start)
	wg.Wait()
	for i, h := range built {
		c := seedCases[i%len(seedCases)]
		if errs[i] != nil {
			t.Fatalf("build %d (%s): %v", i, c.name, errs[i])
		}
		w := serial[i%len(seedCases)]
		if !bytes.Equal(got[i].saveQ, w.saveQ) || got[i].decide != w.decide {
			t.Fatalf("build %d (%s): SaveQ equal %v, first Decide %s; serial build decided %s",
				i, c.name, bytes.Equal(got[i].saveQ, w.saveQ), got[i].decide, w.decide)
		}
		if first := built[i%len(seedCases)]; h.hybridSeed != first.hybridSeed {
			t.Fatalf("build %d (%s) holds its own seed", i, c.name)
		}
	}
}

var hybridSink *Hybrid

// BenchmarkNewHybrid measures a warm construction: the seed for the key
// is already on the profiling table, so NewHybrid clones it and
// allocates its scratch.
func BenchmarkNewHybrid(b *testing.B) {
	if _, err := NewHybrid(specjbb, specTab); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := NewHybrid(specjbb, specTab)
		if err != nil {
			b.Fatal(err)
		}
		hybridSink = h
	}
}
