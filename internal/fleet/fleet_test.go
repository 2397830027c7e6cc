package fleet

import (
	"math"
	"runtime"
	"testing"

	"greensprint/internal/cluster"
)

// mixedSpec is the three-class spec the determinism and distribution
// tests exercise: a web tier, a batch tier with a bigger sprint
// envelope and battery, and a battery-less archive tier pinned to
// zone 2.
func mixedSpec(total int, seed int64) Spec {
	return Spec{
		Name:         "mixed",
		TotalServers: total,
		Seed:         seed,
		Templates: []Template{
			{Name: "web", Weight: 5, BatteryAh: 10, Panels: 3},
			{Name: "batch", Weight: 3, PeakPower: 250, BatteryAh: 3.2, BatteryMaxDoD: 0.6, Panels: 2},
			{Name: "archive", Weight: 2, Zone: 2},
		},
	}
}

// TestGenerateDeterministic regenerates the same spec many times —
// under several GOMAXPROCS settings, since determinism must not hinge
// on the scheduler — and demands a bit-identical fingerprint each
// time.
func TestGenerateDeterministic(t *testing.T) {
	spec := mixedSpec(10_000, 42)
	base, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := base.Fingerprint()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			topo, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if got := topo.Fingerprint(); got != want {
				t.Fatalf("GOMAXPROCS=%d rep %d: fingerprint %s, want %s", procs, rep, got, want)
			}
		}
	}
}

// TestGenerateSeedSensitivity: a different seed must yield a different
// rack draw (with three weighted classes over 1000 racks, a collision
// would mean the seed is ignored).
func TestGenerateSeedSensitivity(t *testing.T) {
	specA, specB := mixedSpec(10_000, 1), mixedSpec(10_000, 2)
	a, err := specA.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := specB.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("seeds 1 and 2 generated identical topologies")
	}
}

// TestGenerateCensus checks the structural invariants of a generated
// topology: totals conserve, racks tile the server range, classes
// roughly follow their weights, and pinned classes land in their zone.
func TestGenerateCensus(t *testing.T) {
	spec := mixedSpec(10_000, 7)
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Servers != 10_000 {
		t.Fatalf("Servers = %d, want 10000", topo.Servers)
	}
	var servers, units int
	next := 0
	for _, r := range topo.Racks {
		if r.FirstServer != next {
			t.Fatalf("rack %d starts at %d, want %d", r.Index, r.FirstServer, next)
		}
		next = r.FirstServer + r.Servers
		servers += r.Servers
		if topo.Classes[r.Class].Name == "archive" && r.Zone != 1 {
			t.Fatalf("archive rack %d in zone %d, want pinned zone 1", r.Index, r.Zone)
		}
	}
	if servers != topo.Servers {
		t.Fatalf("racks hold %d servers, want %d", servers, topo.Servers)
	}
	for _, c := range topo.Classes {
		if c.BatteryAh > 0 {
			units += c.Servers
		}
		// Weighted draw sanity: each class should land within ±50% of
		// its expected share over 1000 racks.
		want := float64(topo.Servers) * c.Weight / 10
		if got := float64(c.Servers); got < want*0.5 || got > want*1.5 {
			t.Errorf("class %s drew %d servers, expected ≈%.0f", c.Name, c.Servers, want)
		}
	}
	if units != topo.Units {
		t.Fatalf("Units = %d, classes sum to %d", topo.Units, units)
	}
	for _, r := range topo.Racks {
		for i := r.FirstServer; i < r.FirstServer+r.Servers; i++ {
			if topo.ClassOf(i) != r.Class {
				t.Fatalf("server %d classed %d, rack %d says %d", i, topo.ClassOf(i), r.Index, r.Class)
			}
		}
	}
	members := 0
	for z, list := range topo.ZoneMembers() {
		for _, s := range list {
			if s < 0 || s >= topo.Servers {
				t.Fatalf("zone %d member %d out of range", z, s)
			}
		}
		members += len(list)
	}
	if members != topo.Servers {
		t.Fatalf("zone membership covers %d servers, want %d", members, topo.Servers)
	}
	ct := topo.ChaosTopology()
	if ct.Servers != topo.Servers || ct.Units != topo.Units || ct.Zones != topo.Zones {
		t.Fatalf("ChaosTopology %+v disagrees with topology totals", ct)
	}
}

// TestFromGreen checks the flat-config lift: one rack, one class, the
// paper config's servers, units and panels.
func TestFromGreen(t *testing.T) {
	spec := FromGreen(cluster.REBatt(), 1)
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g := cluster.REBatt()
	if topo.Servers != g.GreenServers || topo.Units != g.GreenServers || topo.Panels != g.Panels {
		t.Fatalf("FromGreen topology %s, want %d servers/units, %d panels",
			topo.Summary(), g.GreenServers, g.Panels)
	}
	if len(topo.Racks) != 1 || len(topo.Classes) != 1 {
		t.Fatalf("FromGreen generated %d racks, %d classes, want 1 and 1", len(topo.Racks), len(topo.Classes))
	}
	bc := topo.BatteryClasses()
	if len(bc) != 1 || bc[0].Count != g.GreenServers || bc[0].Config.Capacity != g.BatteryAh {
		t.Fatalf("BatteryClasses = %+v", bc)
	}
}

// TestValidateErrors walks the spec validation matrix.
func TestValidateErrors(t *testing.T) {
	ok := mixedSpec(100, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no servers", func(s *Spec) { s.TotalServers = 0 }},
		{"negative rack size", func(s *Spec) { s.RackSize = -1 }},
		{"negative zones", func(s *Spec) { s.Zones = -1 }},
		{"no templates", func(s *Spec) { s.Templates = nil }},
		{"unnamed template", func(s *Spec) { s.Templates[0].Name = "" }},
		{"duplicate template", func(s *Spec) { s.Templates[1].Name = s.Templates[0].Name }},
		{"zero weight", func(s *Spec) { s.Templates[0].Weight = 0 }},
		{"negative peak", func(s *Spec) { s.Templates[0].PeakPower = -1 }},
		{"negative battery", func(s *Spec) { s.Templates[0].BatteryAh = -1 }},
		{"bad dod", func(s *Spec) { s.Templates[0].BatteryMaxDoD = 1.5 }},
		{"negative panels", func(s *Spec) { s.Templates[0].Panels = -1 }},
		{"zone out of range", func(s *Spec) { s.Templates[0].Zone = 3 }},
		// Absurd sizes must be refused before Generate allocates for
		// them: 1<<62 servers overflows makeslice, and 1<<40 zones on a
		// three-server fleet exhausts memory.
		{"servers over limit", func(s *Spec) { s.TotalServers = 1 << 62 }},
		{"servers one over limit", func(s *Spec) { s.TotalServers = MaxServers + 1 }},
		{"absurd zones", func(s *Spec) { s.TotalServers = 3; s.Zones = 1 << 40 }},
		{"more zones than servers", func(s *Spec) { s.TotalServers = 3; s.Zones = 4 }},
	}
	for _, tc := range cases {
		spec := mixedSpec(100, 1)
		tc.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken spec", tc.name)
		}
	}
	limit := mixedSpec(MaxServers, 1)
	if err := limit.Validate(); err != nil {
		t.Errorf("spec at the server limit rejected: %v", err)
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err == nil {
		t.Error("nil spec accepted")
	}
}

// TestGenerateHugeRackSize pins the rack count for a rack_size far
// larger than the fleet: one partial rack, with no overflow in the
// ceiling division.
func TestGenerateHugeRackSize(t *testing.T) {
	spec := mixedSpec(25, 3)
	spec.RackSize = math.MaxInt
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Racks) != 1 || topo.Racks[0].Servers != 25 {
		t.Fatalf("racks = %+v, want one rack of 25 servers", topo.Racks)
	}
}
