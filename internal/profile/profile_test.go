package profile

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

func buildSPEC(t *testing.T) *Table {
	t.Helper()
	tab, err := Build(workload.SPECjbb(), DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBuildShape(t *testing.T) {
	tab := buildSPEC(t)
	wantEntries := DefaultLevels * len(server.Configs())
	if len(tab.Entries) != wantEntries {
		t.Fatalf("entries = %d, want %d", len(tab.Entries), wantEntries)
	}
	if tab.Workload != "SPECjbb" {
		t.Errorf("workload = %q", tab.Workload)
	}
	for _, e := range tab.Entries {
		if !e.Config().Valid() {
			t.Fatalf("invalid config in table: %+v", e)
		}
		if e.Power < server.IdlePower-20 || e.Power > 155+1e-9 {
			t.Errorf("power out of range: %+v", e)
		}
		if e.Goodput < 0 || e.NormPerf < 0 {
			t.Errorf("negative perf: %+v", e)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(workload.Profile{}, 10); err == nil {
		t.Error("invalid profile should error")
	}
	if _, err := Build(workload.SPECjbb(), 0); err == nil {
		t.Error("zero levels should error")
	}
	if _, err := Build(workload.SPECjbb(), MaxLevels+1); err == nil {
		t.Errorf("%d levels should error", MaxLevels+1)
	}
}

func TestLevelFor(t *testing.T) {
	tab := buildSPEC(t)
	if got := tab.LevelFor(0); got != 0 {
		t.Errorf("LevelFor(0) = %d", got)
	}
	if got := tab.LevelFor(tab.MaxRate); got != tab.Levels-1 {
		t.Errorf("LevelFor(max) = %d", got)
	}
	if got := tab.LevelFor(tab.MaxRate * 10); got != tab.Levels-1 {
		t.Errorf("LevelFor(10x) = %d", got)
	}
	// Mid-scale maps to a middle level.
	mid := tab.LevelFor(tab.MaxRate / 2)
	if mid < 3 || mid > 6 {
		t.Errorf("LevelFor(half) = %d", mid)
	}
	// Degenerate table.
	var empty Table
	if empty.LevelFor(5) != 0 {
		t.Error("degenerate LevelFor should be 0")
	}
}

func TestLookup(t *testing.T) {
	tab := buildSPEC(t)
	e, ok := tab.Lookup(0, server.Normal())
	if !ok {
		t.Fatal("Normal at level 0 should exist")
	}
	if e.Config() != server.Normal() {
		t.Errorf("config = %v", e.Config())
	}
	if _, ok := tab.Lookup(99, server.Normal()); ok {
		t.Error("level 99 should not exist")
	}
	if _, ok := tab.Lookup(0, server.Config{Cores: 5, Freq: 1200}); ok {
		t.Error("invalid config should not exist")
	}
	if p, ok := tab.LoadPower(0, server.MaxSprint()); !ok || p <= 0 {
		t.Errorf("LoadPower = %v ok=%v", p, ok)
	}
}

func TestPowerMonotoneAcrossLevels(t *testing.T) {
	tab := buildSPEC(t)
	// At a fixed setting, higher load levels demand at least as much
	// power (utilization grows until saturation).
	c := server.MaxSprint()
	var prev units.Watt
	for lvl := 0; lvl < tab.Levels; lvl++ {
		e, ok := tab.Lookup(lvl, c)
		if !ok {
			t.Fatalf("missing level %d", lvl)
		}
		if e.Power < prev {
			t.Errorf("power decreasing at level %d: %v < %v", lvl, e.Power, prev)
		}
		prev = e.Power
	}
}

func TestBestWithin(t *testing.T) {
	tab := buildSPEC(t)
	top := tab.Levels - 1
	// Unlimited budget at the top level: the max sprint wins.
	e, ok := tab.BestWithin(top, 1000, nil)
	if !ok {
		t.Fatal("unlimited budget should find a setting")
	}
	if e.Config() != server.MaxSprint() {
		t.Errorf("best = %v, want max sprint", e.Config())
	}
	// Tight budget: must fit.
	e, ok = tab.BestWithin(top, 120, nil)
	if !ok {
		t.Fatal("120W budget should fit something")
	}
	if e.Power > 120 {
		t.Errorf("chosen power %v > 120", e.Power)
	}
	// Impossible budget.
	if _, ok := tab.BestWithin(top, 10, nil); ok {
		t.Error("10W budget should fit nothing")
	}
}

// Property: BestWithin never returns a setting above budget when it
// reports ok.
func TestBestWithinBudgetProperty(t *testing.T) {
	tab := buildSPEC(t)
	f := func(lRaw uint8, bRaw uint16) bool {
		level := int(lRaw) % tab.Levels
		budget := units.Watt(float64(bRaw%200) + 20)
		e, ok := tab.BestWithin(level, budget, nil)
		if !ok {
			return true
		}
		return e.Power <= budget && e.Config().Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestWithinFilters(t *testing.T) {
	tab := buildSPEC(t)
	top := tab.Levels - 1
	parallel := func(c server.Config) bool { return c.Freq == units.FreqMax }
	pacing := func(c server.Config) bool { return c.Cores == server.MaxCores }
	ePar, ok := tab.BestWithin(top, 130, parallel)
	if !ok {
		t.Fatal("parallel filter at 130W should fit")
	}
	if ePar.Freq != units.FreqMax {
		t.Errorf("parallel chose %v", ePar.Config())
	}
	ePac, ok := tab.BestWithin(top, 130, pacing)
	if !ok {
		t.Fatal("pacing filter at 130W should fit")
	}
	if ePac.Cores != server.MaxCores {
		t.Errorf("pacing chose %v", ePac.Config())
	}
	// For SPECjbb, pacing beats parallel at an equal budget (§IV-A).
	if ePac.Goodput <= ePar.Goodput {
		t.Errorf("pacing %v should beat parallel %v", ePac.Goodput, ePar.Goodput)
	}
}

func TestBestWithinTieBreaksTowardLowerPower(t *testing.T) {
	tab := buildSPEC(t)
	// At level 0 (light load) many settings deliver the full offered
	// goodput; the chosen one should be the cheapest among the best.
	e, ok := tab.BestWithin(0, 1000, nil)
	if !ok {
		t.Fatal("no setting at level 0")
	}
	for _, other := range tab.LevelEntries(0) {
		if other.Goodput == e.Goodput && other.Power < e.Power {
			t.Errorf("found cheaper equal-goodput setting %+v than chosen %+v", other, e)
		}
	}
}

func TestLevelEntriesSorted(t *testing.T) {
	tab := buildSPEC(t)
	es := tab.LevelEntries(3)
	if len(es) != len(server.Configs()) {
		t.Fatalf("level entries = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Power < es[i-1].Power {
			t.Fatal("entries not sorted by power")
		}
	}
	if got := tab.LevelEntries(99); got != nil {
		t.Errorf("missing level should be empty, got %d", len(got))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tab := buildSPEC(t)
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != tab.Workload || back.Levels != tab.Levels || len(back.Entries) != len(tab.Entries) {
		t.Fatalf("round trip mismatch: %s %d %d", back.Workload, back.Levels, len(back.Entries))
	}
	// Lookup works after deserialization (index rebuilt).
	a, ok1 := tab.Lookup(2, server.MaxSprint())
	b, ok2 := back.Lookup(2, server.MaxSprint())
	if !ok1 || !ok2 || a.Power != b.Power || a.Goodput != b.Goodput {
		t.Errorf("lookup mismatch: %+v vs %+v", a, b)
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("{bad"))); err == nil {
		t.Error("bad JSON should error")
	}
}

// TestReadJSONRejectsMalformed checks that ReadJSON accepts only every
// (level, setting) cell exactly once, in Build's order, under a level
// count within [1, MaxLevels].
func TestReadJSONRejectsMalformed(t *testing.T) {
	tab, err := Build(workload.SPECjbb(), 2)
	if err != nil {
		t.Fatal(err)
	}
	n := server.NumConfigs()
	cases := map[string]func(*Table){
		"partial":          func(c *Table) { c.Entries = c.Entries[:len(c.Entries)-1] },
		"no entries":       func(c *Table) { c.Entries = nil },
		"extra level":      func(c *Table) { c.Entries = append(c.Entries, c.Entries[n:]...) },
		"swapped settings": func(c *Table) { c.Entries[0], c.Entries[1] = c.Entries[1], c.Entries[0] },
		"swapped levels":   func(c *Table) { c.Entries[0], c.Entries[n] = c.Entries[n], c.Entries[0] },
		"level 2 of 2":     func(c *Table) { c.Entries[n].Level = 2 },
		"level -1":         func(c *Table) { c.Entries[0].Level = -1 },
		"duplicate cell":   func(c *Table) { c.Entries[1] = c.Entries[0] },
		"setting outside":  func(c *Table) { c.Entries[n-1].Cores = server.MaxCores + 1 },
		"zero levels":      func(c *Table) { c.Levels, c.Entries = 0, nil },
		"one level":        func(c *Table) { c.Levels = 1 },
		"levels past max":  func(c *Table) { c.Levels = MaxLevels + 1 },
		"huge levels":      func(c *Table) { c.Levels = 1 << 60 },
	}
	for name, mutate := range cases {
		c := &Table{Workload: tab.Workload, Levels: tab.Levels, MaxRate: tab.MaxRate, Entries: slices.Clone(tab.Entries)}
		mutate(c)
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(&buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
