// Package fleet is GreenSprint's deterministic fleet generator: it
// stamps out a heterogeneous datacenter topology — racks of server
// classes with their own sprint power envelope, battery pack, PV
// attachment and availability zone — from a declarative Spec of
// weighted templates, the way large-scale cluster stress frameworks
// describe synthetic fleets (total node count + weighted node
// templates).
//
// Generation is bit-deterministic by construction: the only randomness
// is the explicitly seeded source consumed inside Generate, so the
// same Spec (including its Seed) always yields the same Topology, and
// a Topology's Fingerprint makes that reproducibility checkable — a
// checkpoint cut from a fleet run records the fingerprint and refuses
// to restore into a different topology.
//
// The generated Topology is the bridge between the declarative layer
// and the structure-of-arrays engine core: it exposes class-indexed
// counts (battery.ClassSpec groups for battery.NewClassBank, per-class
// server counts for pmk.NewClassFleet) and the zone membership lists
// chaos.ResolveFor targets zone outages against.
package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/solar"
	"greensprint/internal/units"
)

// FromGreen lifts a Table I green-provisioning option into a
// single-class, single-rack fleet spec: the generated topology has
// exactly the option's servers, battery units and panels. sim.Engine
// runs the paper's rack as this topology when its config has no
// fleet spec (see TestFleetSingleClassParity in sim).
func FromGreen(g cluster.GreenConfig, seed int64) Spec {
	return Spec{
		Name:         g.Name,
		TotalServers: g.GreenServers,
		RackSize:     g.GreenServers,
		Seed:         seed,
		Templates: []Template{{
			Name:          g.Name,
			Weight:        1,
			BatteryAh:     g.BatteryAh,
			BatteryMaxDoD: g.MaxDoD,
			Panels:        g.Panels,
		}},
	}
}

// DefaultRackSize is the servers-per-rack default, matching the
// paper's 10-server prototype rack.
const DefaultRackSize = 10

// DefaultZones is the default availability-zone count, matching the
// two-PDU-leg split the chaos engine has always assumed.
const DefaultZones = 2

// MaxServers bounds Spec.TotalServers. Generate allocates per server,
// so a spec read from a file must not be able to demand an unbounded
// fleet; the limit sits two orders of magnitude above the 10k-server
// fleets the benchmarks run.
const MaxServers = 1 << 20

// Template is one weighted server class: every rack drawn from it
// carries servers of this class. The zero values fall back to the
// paper's single-class defaults, so a one-template spec with an empty
// template reproduces the paper topology.
type Template struct {
	// Name labels the class in metrics, events and summaries.
	Name string `json:"name"`
	// Weight is the template's relative draw weight (> 0).
	Weight float64 `json:"weight"`
	// PeakPower overrides the per-server full-sprint power envelope
	// in watts; 0 keeps the workload profile's default peak.
	PeakPower units.Watt `json:"peak_power_w,omitempty"`
	// BatteryAh is the per-server battery capacity (0 = no battery,
	// the REOnly-style class).
	BatteryAh units.AmpHour `json:"battery_ah,omitempty"`
	// BatteryMaxDoD overrides the battery depth-of-discharge limit
	// (0 = the paper's 0.40 default).
	BatteryMaxDoD float64 `json:"battery_max_dod,omitempty"`
	// Panels is the PV panel count attached at each of this class's
	// rack PDU legs.
	Panels int `json:"panels,omitempty"`
	// Zone optionally pins the class's racks to one availability
	// zone, 1-based (zone 1 is the first zone); 0 assigns racks
	// round-robin across the spec's zones.
	Zone int `json:"zone,omitempty"`
}

// Spec declares a fleet to generate. The zero-value fields take the
// documented defaults during Generate; Validate normalizes nothing —
// the spec that was validated is the spec that is hashed.
type Spec struct {
	// Name labels the fleet.
	Name string `json:"name"`
	// TotalServers is the fleet size.
	TotalServers int `json:"total_servers"`
	// RackSize is the servers per rack (DefaultRackSize if 0); the
	// last rack may be partial.
	RackSize int `json:"rack_size,omitempty"`
	// Zones is the availability-zone count (DefaultZones if 0).
	Zones int `json:"zones,omitempty"`
	// Seed drives the weighted template draws.
	Seed int64 `json:"seed"`
	// Templates are the weighted server classes.
	Templates []Template `json:"templates"`
}

// Validate reports structural errors in the spec.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("fleet: nil spec")
	}
	if s.TotalServers < 1 {
		return fmt.Errorf("fleet %s: total_servers %d < 1", s.Name, s.TotalServers)
	}
	if s.TotalServers > MaxServers {
		return fmt.Errorf("fleet %s: total_servers %d exceeds the %d-server limit", s.Name, s.TotalServers, MaxServers)
	}
	if s.RackSize < 0 {
		return fmt.Errorf("fleet %s: negative rack_size %d", s.Name, s.RackSize)
	}
	if s.Zones < 0 {
		return fmt.Errorf("fleet %s: negative zones %d", s.Name, s.Zones)
	}
	if s.Zones > s.TotalServers {
		return fmt.Errorf("fleet %s: zones %d exceeds total_servers %d", s.Name, s.Zones, s.TotalServers)
	}
	if len(s.Templates) == 0 {
		return fmt.Errorf("fleet %s: no templates", s.Name)
	}
	zones := s.Zones
	if zones == 0 {
		zones = DefaultZones
	}
	seen := map[string]bool{}
	for i, t := range s.Templates {
		switch {
		case t.Name == "":
			return fmt.Errorf("fleet %s: template %d has no name", s.Name, i)
		case seen[t.Name]:
			return fmt.Errorf("fleet %s: duplicate template %q", s.Name, t.Name)
		case !(t.Weight > 0):
			return fmt.Errorf("fleet %s: template %q weight %v not positive", s.Name, t.Name, t.Weight)
		case t.PeakPower < 0:
			return fmt.Errorf("fleet %s: template %q negative peak power %v", s.Name, t.Name, t.PeakPower)
		case t.BatteryAh < 0:
			return fmt.Errorf("fleet %s: template %q negative battery capacity %v", s.Name, t.Name, t.BatteryAh)
		case t.BatteryMaxDoD < 0 || t.BatteryMaxDoD > 1:
			return fmt.Errorf("fleet %s: template %q MaxDoD %v outside [0,1]", s.Name, t.Name, t.BatteryMaxDoD)
		case t.Panels < 0:
			return fmt.Errorf("fleet %s: template %q negative panels %d", s.Name, t.Name, t.Panels)
		case t.Zone < 0 || t.Zone > zones:
			return fmt.Errorf("fleet %s: template %q zone %d outside 1-%d", s.Name, t.Name, t.Zone, zones)
		}
		seen[t.Name] = true
	}
	return nil
}

// LoadSpec reads a fleet spec JSON file and validates it. Decoding is
// strict: an unknown field is an error, so a typo cannot silently fall
// back to a default.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load fleet spec: %w", err)
	}
	spec, err := parseSpec(b)
	if err != nil {
		return nil, fmt.Errorf("fleet spec %s: %w", path, err)
	}
	return spec, nil
}

// parseSpec is LoadSpec's strict decode and validation of one spec.
func parseSpec(b []byte) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Class is one template's generated footprint: how many servers and
// racks it ended up with.
type Class struct {
	Template
	// Index is the class's position in Spec.Templates (stable across
	// regenerations; classes that drew no rack keep Servers == 0).
	Index int `json:"index"`
	// Servers is the class's total server count.
	Servers int `json:"servers"`
	// Racks is the class's rack count.
	Racks int `json:"racks"`
}

// Rack is one generated rack: a contiguous run of server indices all
// of one class, attached to one zone.
type Rack struct {
	// Index is the rack number; servers are numbered rack-major, so
	// the rack covers [FirstServer, FirstServer+Servers).
	Index int `json:"index"`
	// Class is the class index the rack was drawn as.
	Class int `json:"class"`
	// FirstServer is the rack's first global server index.
	FirstServer int `json:"first_server"`
	// Servers is the rack's server count (the last rack may be
	// partial).
	Servers int `json:"servers"`
	// Zone is the rack's 0-based availability zone.
	Zone int `json:"zone"`
}

// Topology is a fully generated fleet: the resolved rack list plus the
// class-indexed aggregates the structure-of-arrays engine core runs
// on. A Topology is immutable after Generate.
type Topology struct {
	// Spec is the spec the topology was generated from.
	Spec Spec `json:"spec"`
	// Classes holds one entry per spec template, in template order.
	Classes []Class `json:"classes"`
	// Racks is the rack list in index order.
	Racks []Rack `json:"racks"`
	// Servers, Units and Panels are the fleet totals (Units counts
	// battery units: one per server of a battery-carrying class).
	Servers int `json:"servers"`
	Units   int `json:"units"`
	Panels  int `json:"panels"`
	// Zones is the availability-zone count.
	Zones int `json:"zones"`

	classOf     []int
	zoneMembers [][]int
}

// Generate resolves the spec into a concrete topology. All randomness
// is consumed here, from the spec's seed: rack r's class is a weighted
// draw, so the same spec always generates the same topology (see
// TestGenerateDeterministic) and Fingerprint pins it.
func (s *Spec) Generate() (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rackSize := s.RackSize
	if rackSize == 0 {
		rackSize = DefaultRackSize
	}
	zones := s.Zones
	if zones == 0 {
		zones = DefaultZones
	}
	var totalWeight float64
	for _, t := range s.Templates {
		totalWeight += t.Weight
	}
	t := &Topology{
		Spec:    *s,
		Servers: s.TotalServers,
		Zones:   zones,
		Classes: make([]Class, len(s.Templates)),
	}
	for i, tpl := range s.Templates {
		t.Classes[i] = Class{Template: tpl, Index: i}
	}
	// A single template needs no draw (every rack is class 0), and
	// seeding the source costs more than generating a small rack.
	var rng *rand.Rand
	if len(s.Templates) > 1 {
		rng = rand.New(rand.NewSource(s.Seed))
	}
	// Ceiling division without the overflow a huge rack_size would
	// cause in (total + rackSize - 1) / rackSize.
	racks := s.TotalServers / rackSize
	if s.TotalServers%rackSize != 0 {
		racks++
	}
	t.Racks = make([]Rack, racks)
	t.classOf = make([]int, s.TotalServers)
	t.zoneMembers = make([][]int, zones)
	for r := 0; r < racks; r++ {
		class := 0
		if rng != nil {
			// Weighted draw over the cumulative template weights.
			pick := rng.Float64() * totalWeight
			class = len(s.Templates) - 1
			for i, tpl := range s.Templates {
				if pick < tpl.Weight {
					class = i
					break
				}
				pick -= tpl.Weight
			}
		}
		first := r * rackSize
		n := rackSize
		if first+n > s.TotalServers {
			n = s.TotalServers - first
		}
		zone := r % zones
		if z := s.Templates[class].Zone; z > 0 {
			zone = z - 1
		}
		t.Racks[r] = Rack{Index: r, Class: class, FirstServer: first, Servers: n, Zone: zone}
		c := &t.Classes[class]
		c.Servers += n
		c.Racks++
		t.Panels += s.Templates[class].Panels
		for i := first; i < first+n; i++ {
			t.classOf[i] = class
			t.zoneMembers[zone] = append(t.zoneMembers[zone], i)
		}
	}
	for _, c := range t.Classes {
		if c.BatteryAh > 0 {
			t.Units += c.Servers
		}
	}
	return t, nil
}

// ClassOf returns the class index of a global server index.
func (t *Topology) ClassOf(server int) int { return t.classOf[server] }

// ClassCounts returns the per-class server counts in class order.
func (t *Topology) ClassCounts() []int {
	out := make([]int, len(t.Classes))
	for i, c := range t.Classes {
		out[i] = c.Servers
	}
	return out
}

// ZoneMembers returns the ascending server-index list of each zone.
// The returned slices are the topology's own: read-only.
func (t *Topology) ZoneMembers() [][]int { return t.zoneMembers }

// PeakGreen returns the fleet's aggregate PV peak AC output.
func (t *Topology) PeakGreen() units.Watt {
	return solar.Array{Panel: solar.DefaultPanel(), Panels: t.Panels}.PeakAC()
}

// BatteryClasses returns the class-indexed battery groups for
// battery.NewClassBank: one ClassSpec per battery-carrying class with
// servers, in class order. Unit indices therefore run class-major,
// which is the order chaos BatteryDegrade targets resolve against.
func (t *Topology) BatteryClasses() []battery.ClassSpec {
	var out []battery.ClassSpec
	for _, c := range t.Classes {
		if c.BatteryAh <= 0 || c.Servers == 0 {
			continue
		}
		cfg := battery.ServerBattery()
		cfg.Capacity = c.BatteryAh
		if c.BatteryMaxDoD > 0 {
			cfg.MaxDoD = c.BatteryMaxDoD
		}
		out = append(out, battery.ClassSpec{Config: cfg, Count: c.Servers})
	}
	return out
}

// ChaosTopology returns the shape chaos.Profile.ResolveFor draws fault
// targets from: server and battery-unit counts plus the generated zone
// membership, so zone outages strike generated zones instead of the
// legacy contiguous two-way split.
func (t *Topology) ChaosTopology() chaos.Topology {
	return chaos.Topology{
		Servers:     t.Servers,
		Units:       t.Units,
		Zones:       t.Zones,
		ZoneMembers: t.zoneMembers,
	}
}

// fingerprintDoc pins the canonical field set hashed into Fingerprint;
// json.Marshal renders struct fields in declaration order, so the
// encoding is deterministic.
type fingerprintDoc struct {
	Spec    Spec   `json:"spec"`
	Racks   []Rack `json:"racks"`
	Servers int    `json:"servers"`
	Units   int    `json:"units"`
	Panels  int    `json:"panels"`
	Zones   int    `json:"zones"`
}

// Fingerprint returns a stable hex digest of the generated topology.
// Same spec + seed ⇒ same fingerprint; checkpoints cut from fleet runs
// record it so a resume into a different topology fails loudly.
func (t *Topology) Fingerprint() string {
	b, err := json.Marshal(fingerprintDoc{
		Spec: t.Spec, Racks: t.Racks,
		Servers: t.Servers, Units: t.Units, Panels: t.Panels, Zones: t.Zones,
	})
	if err != nil {
		// Marshalling plain structs of scalars cannot fail; keep the
		// signature allocation-free for callers.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Summary renders a one-line per-class census for logs.
func (t *Topology) Summary() string {
	s := fmt.Sprintf("fleet %q: %d servers, %d racks, %d classes, %d battery units, %d panels, %d zones",
		t.Spec.Name, t.Servers, len(t.Racks), len(t.Classes), t.Units, t.Panels, t.Zones)
	for _, c := range t.Classes {
		s += fmt.Sprintf("; %s=%d", c.Name, c.Servers)
	}
	return s
}
