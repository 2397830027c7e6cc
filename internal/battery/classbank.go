package battery

import (
	"fmt"
	"time"

	"greensprint/internal/units"
)

// ClassSpec declares one battery class of a fleet: a unit
// configuration shared by Count servers.
type ClassSpec struct {
	Config Config
	Count  int
}

// classGroup is a run of units in identical state: same class (so same
// Config) and same mutable state, represented by one exemplar unit.
// Groups form an ordered partition of the bank's unit index space —
// group g covers the Count units after the groups before it.
//
// Even discharge/charge splitting keeps every unit of a class in
// lockstep, so a fleet of 10,000 units is usually a handful of groups:
// all per-epoch operations touch the exemplar once and weight the
// result by Count. Only a targeted chaos degradation breaks a unit out
// of its group (DegradeUnit splits the run), so a degraded unit never
// shares a healthy neighbour's answers.
type classGroup struct {
	class int
	count int
	unit  *Battery
}

// ClassBank is the battery bank of the paper's distributed
// (server-level) battery architecture: one unit per green server,
// power requests split evenly across the units not at their DoD floor.
// Units are stored grouped by (class, state) rather than one by one,
// so aggregate operations cost O(groups) rather than O(units); the
// paper's rack is a one-class bank of at most three units. Aggregates
// add runs of up to three units term by term (see addRun), so such a
// bank sums exactly like a per-unit one, whatever its grouping.
// A ClassBank is stateful and not safe for concurrent use.
type ClassBank struct {
	specs  []ClassSpec
	groups []classGroup
	size   int
}

// NewClassBank creates the fleet's units fully charged, one group per
// class, units numbered class-major in spec order. No specs yields an
// empty bank that supplies nothing, which models the paper's REOnly
// configuration.
func NewClassBank(specs []ClassSpec) (*ClassBank, error) {
	b := &ClassBank{specs: append([]ClassSpec(nil), specs...)}
	for i, s := range specs {
		if s.Count < 1 {
			return nil, fmt.Errorf("battery: class %d count %d < 1", i, s.Count)
		}
		u, err := New(s.Config)
		if err != nil {
			return nil, fmt.Errorf("battery: class %d: %w", i, err)
		}
		b.groups = append(b.groups, classGroup{class: i, count: s.Count, unit: u})
		b.size += s.Count
	}
	return b, nil
}

// Size returns the total number of units represented.
func (b *ClassBank) Size() int { return b.size }

// Groups returns the current group count (units in distinct states) —
// the quantity per-epoch cost actually scales with.
func (b *ClassBank) Groups() int { return len(b.groups) }

// Unit returns the exemplar holding unit i's state, for inspection.
// Every unit of a group shares the exemplar, so callers must not
// mutate it.
func (b *ClassBank) Unit(i int) *Battery {
	gi, _ := b.locate(i)
	return b.groups[gi].unit
}

// locate returns the group holding unit i (0 ≤ i < Size) and i's
// offset within it.
func (b *ClassBank) locate(i int) (gi, offset int) {
	offset = i
	for offset >= b.groups[gi].count {
		offset -= b.groups[gi].count
		gi++
	}
	return gi, offset
}

// addRun adds count copies of v to sum. Runs of up to three are added
// term by term: x+x = 2x is exact, but after a non-zero prefix
// (s+x)+x and s+2x can round differently, and a per-unit bank adds
// one unit at a time. Longer runs — only generated fleets have them —
// are scaled, keeping the cost O(groups).
func addRun(sum, v float64, count int) float64 {
	if count > 3 {
		return sum + float64(count)*v
	}
	for ; count > 0; count-- {
		sum += v
	}
	return sum
}

// availCount returns the number of units not at the DoD floor.
func (b *ClassBank) availCount() int {
	n := 0
	for _, g := range b.groups {
		if !g.unit.AtFloor() {
			n += g.count
		}
	}
	return n
}

// MaxDoD returns the most conservative (smallest) depth-of-discharge
// limit across classes, which is exact for single-class fleets and a
// safe floor for mixed ones. An empty bank returns 0.
func (b *ClassBank) MaxDoD() float64 {
	min := 0.0
	for i, s := range b.specs {
		if i == 0 || s.Config.MaxDoD < min {
			min = s.Config.MaxDoD
		}
	}
	return min
}

// MaxSustainablePower returns the aggregate constant power the fleet's
// batteries can hold for duration d: one bisection per group, weighted
// by group size. Each exemplar's memo makes per-epoch repeats free.
func (b *ClassBank) MaxSustainablePower(d time.Duration) units.Watt {
	var sum float64
	for _, g := range b.groups {
		if g.unit.AtFloor() {
			continue
		}
		sum = addRun(sum, float64(g.unit.MaxSustainablePower(d)), g.count)
	}
	return units.Watt(sum)
}

// RemainingTime returns how long the fleet sustains an aggregate draw
// split evenly across available units: the Peukert full-drain time is
// computed once per group and the weakest group bounds the bank.
func (b *ClassBank) RemainingTime(p units.Watt) time.Duration {
	if p <= 0 {
		return 1<<63 - 1
	}
	avail := b.availCount()
	if avail == 0 {
		return 0
	}
	per := units.Watt(float64(p) / float64(avail))
	min := time.Duration(1<<63 - 1)
	for _, g := range b.groups {
		if g.unit.AtFloor() {
			continue
		}
		if t := g.unit.RemainingTime(per); t < min {
			min = t
		}
	}
	return min
}

// Discharge draws aggregate power p for duration d, split evenly over
// the available units. Every unit of a group is in the same state, so
// one exemplar discharge advances them all; the weakest group limits
// the sustained duration.
func (b *ClassBank) Discharge(p units.Watt, d time.Duration) (time.Duration, error) {
	if p <= 0 || d <= 0 {
		return 0, nil
	}
	avail := b.availCount()
	if avail == 0 {
		return 0, ErrEmpty
	}
	per := units.Watt(float64(p) / float64(avail))
	min := d
	var firstErr error
	for _, g := range b.groups {
		if g.unit.AtFloor() {
			continue
		}
		took, err := g.unit.Discharge(per, d)
		if took < min {
			min = took
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return min, firstErr
}

// Charge distributes charging power evenly across all units and
// returns the total energy accepted.
func (b *ClassBank) Charge(p units.Watt, d time.Duration) units.WattHour {
	if b.size == 0 || p <= 0 || d <= 0 {
		return 0
	}
	per := units.Watt(float64(p) / float64(b.size))
	var total float64
	for _, g := range b.groups {
		total = addRun(total, float64(g.unit.Charge(per, d)), g.count)
	}
	return units.WattHour(total)
}

// DegradeUnit applies a permanent chaos degradation to unit i. The
// unit's group splits so the degraded unit gets its own exemplar and
// the healthy neighbours keep theirs — after the split each group
// still holds units in identical state.
func (b *ClassBank) DegradeUnit(i int, capFactor, resistFactor float64) error {
	if i < 0 || i >= b.size {
		return fmt.Errorf("battery: degrade: unit %d of %d", i, b.size)
	}
	gi, offset := b.locate(i)
	g := b.groups[gi]
	if g.count == 1 {
		return g.unit.Degrade(capFactor, resistFactor)
	}
	// Split the run at the target: [before][target][after]. Each part
	// needs its own exemplar — groups apply mutations once apiece, so
	// sharing a *Battery across groups would double-apply them.
	target := *g.unit
	if err := target.Degrade(capFactor, resistFactor); err != nil {
		return err
	}
	var parts [3]classGroup
	np := 0
	if offset > 0 {
		parts[np] = classGroup{class: g.class, count: offset, unit: g.unit}
		np++
	}
	parts[np] = classGroup{class: g.class, count: 1, unit: &target}
	np++
	if rest := g.count - offset - 1; rest > 0 {
		after := *g.unit
		parts[np] = classGroup{class: g.class, count: rest, unit: &after}
		np++
	}
	//greensprint:allow(allocfree) group-list splice on the BatteryDegrade fault path: runs once per injected fault, never per epoch
	b.groups = append(b.groups[:gi], append(parts[:np], b.groups[gi+1:]...)...)
	return nil
}

// SoC returns the count-weighted mean state of charge (1 for an empty
// bank).
func (b *ClassBank) SoC() float64 {
	if b.size == 0 {
		return 1
	}
	sum := 0.0
	for _, g := range b.groups {
		sum = addRun(sum, g.unit.SoC(), g.count)
	}
	return sum / float64(b.size)
}

// Health returns the count-weighted mean capacity-fade multiplier (1
// for an undegraded or empty bank).
func (b *ClassBank) Health() float64 {
	if b.size == 0 {
		return 1
	}
	sum := 0.0
	for _, g := range b.groups {
		sum = addRun(sum, g.unit.CapacityFade(), g.count)
	}
	return sum / float64(b.size)
}

// UsableEnergy returns the aggregate energy above the DoD floors.
func (b *ClassBank) UsableEnergy() units.WattHour {
	sum := 0.0
	for _, g := range b.groups {
		sum = addRun(sum, float64(g.unit.UsableEnergy()), g.count)
	}
	return units.WattHour(sum)
}

// EquivalentCycles returns the count-weighted mean cycle usage.
func (b *ClassBank) EquivalentCycles() float64 {
	if b.size == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range b.groups {
		sum = addRun(sum, g.unit.EquivalentCycles(), g.count)
	}
	return sum / float64(b.size)
}

// Reset restores all units to full charge without clearing wear.
func (b *ClassBank) Reset() {
	for _, g := range b.groups {
		g.unit.Reset()
	}
}

// Snapshot captures the bank's grouped state.
func (b *ClassBank) Snapshot() BankSnapshot {
	s := BankSnapshot{Groups: make([]GroupSnapshot, len(b.groups))}
	for i, g := range b.groups {
		s.Groups[i] = GroupSnapshot{Class: g.class, Count: g.count, State: g.unit.Snapshot()}
	}
	return s
}

// Restore replaces the bank's state from a snapshot taken from a bank
// with the same class specs: the per-class unit totals must match, but
// the grouping itself may differ (chaos splits move). A legacy per-unit
// snapshot — the units list older checkpoints carry — is folded into
// groups first (see foldUnits).
func (b *ClassBank) Restore(s BankSnapshot) error {
	gs := s.Groups
	if len(s.Units) > 0 {
		if len(gs) > 0 {
			return fmt.Errorf("battery: restore: snapshot has both %d units and %d groups", len(s.Units), len(gs))
		}
		var err error
		if gs, err = b.foldUnits(s.Units); err != nil {
			return err
		}
	}
	perClass := make([]int, len(b.specs))
	groups := make([]classGroup, 0, len(gs))
	last := -1
	for i, g := range gs {
		if g.Class < 0 || g.Class >= len(b.specs) {
			return fmt.Errorf("battery: restore: group %d class %d of %d", i, g.Class, len(b.specs))
		}
		if g.Class < last {
			return fmt.Errorf("battery: restore: group %d class %d out of order", i, g.Class)
		}
		if g.Count < 1 {
			return fmt.Errorf("battery: restore: group %d count %d < 1", i, g.Count)
		}
		last = g.Class
		perClass[g.Class] += g.Count
		u, err := New(b.specs[g.Class].Config)
		if err != nil {
			return fmt.Errorf("battery: restore: group %d: %w", i, err)
		}
		if err := u.Restore(g.State); err != nil {
			return fmt.Errorf("battery: restore: group %d: %w", i, err)
		}
		groups = append(groups, classGroup{class: g.Class, count: g.Count, unit: u})
	}
	for i, want := range b.specs {
		if perClass[i] != want.Count {
			return fmt.Errorf("battery: restore: class %d has %d units, want %d", i, perClass[i], want.Count)
		}
	}
	b.groups = groups
	return nil
}

// foldUnits turns a legacy per-unit snapshot into group form. Units are
// numbered class-major in spec order, as NewClassBank numbers them, and
// neighbours of one class in identical state share a group. Each
// unit's state is validated when Restore rebuilds its group.
func (b *ClassBank) foldUnits(us []Snapshot) ([]GroupSnapshot, error) {
	if len(us) != b.size {
		return nil, fmt.Errorf("battery: restore: snapshot has %d units, bank has %d", len(us), b.size)
	}
	var gs []GroupSnapshot
	i := 0
	for c, spec := range b.specs {
		for end := i + spec.Count; i < end; i++ {
			if n := len(gs); n > 0 && gs[n-1].Class == c && gs[n-1].State == us[i] {
				gs[n-1].Count++
				continue
			}
			gs = append(gs, GroupSnapshot{Class: c, Count: 1, State: us[i]})
		}
	}
	return gs, nil
}
