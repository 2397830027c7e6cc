package pmk

import (
	"fmt"
	"sort"

	"greensprint/internal/server"
)

// ClassFleet is a structure-of-arrays knob herd: instead of one knob
// per server it keeps one herd entry per server class — every member
// of a class carries the same setting, applied once and counted by
// herd size — plus a small sorted list of detached servers that have
// been individually actuated (chaos crash targets). ApplyAll/ApplyAlive
// therefore cost O(classes + detached) rather than O(servers), while
// the transition accounting stays per server: a detached server
// carries its own full history, and a herd's count is its members'
// shared history times the herd size.
//
// Contract: a server must be detached (via Apply) before it is ever
// reported down to ApplyAlive. The chaos path does this by
// construction — a ServerCrash fault first forces its target to Normal
// through Apply — so herd entries never contain down servers.
// A ClassFleet is not safe for concurrent use.
type ClassFleet struct {
	classes []classKnob
	classOf func(int) int
	size    int
	// sizes is each class's server count, herd plus detached members.
	sizes []int
	// detached is sorted by server index; a detached server never
	// rejoins its herd. It leaves with its share of the herd's
	// transition count and counts its own from there on, so both the
	// fleet total and every server's own count are conserved.
	detached []detachedKnob
}

// classKnob is one class herd: count servers sharing one setting.
// transitions aggregates the herd's actuation count (count per
// distinct change); every member shares one history, so a detaching
// server's share is transitions / count.
type classKnob struct {
	count       int
	cur         server.Config
	transitions int
}

// detachedKnob is one individually actuated server.
type detachedKnob struct {
	index       int
	class       int
	cur         server.Config
	transitions int
}

// NewClassFleet creates a class-indexed fleet: counts[c] servers of
// class c, all initialized to Normal mode. classOf maps a global
// server index to its class and must be total over [0, Σcounts).
func NewClassFleet(counts []int, classOf func(int) int) *ClassFleet {
	f := &ClassFleet{classOf: classOf, classes: make([]classKnob, len(counts)), sizes: append([]int(nil), counts...)}
	for i, n := range counts {
		f.classes[i] = classKnob{count: n, cur: server.Normal()}
		f.size += n
	}
	return f
}

// Size returns the number of servers in the fleet.
func (f *ClassFleet) Size() int { return f.size }

// findDetached returns the detached-list position of server i and
// whether it is present.
func (f *ClassFleet) findDetached(i int) (int, bool) {
	//greensprint:allow(allocfree) binary-search callback over the detached list; runs only on per-server (fault-path) applies, never on the herd path
	pos := sort.Search(len(f.detached), func(j int) bool { return f.detached[j].index >= i })
	return pos, pos < len(f.detached) && f.detached[pos].index == i
}

// ApplyAll applies the same config to every server: once per class
// herd, once per detached server.
func (f *ClassFleet) ApplyAll(c server.Config) error { return f.ApplyAlive(c, nil) }

// ApplyAlive applies the same config to every server not reported
// down, or to every server when down is nil. Herds are applied
// wholesale — per the type contract, down servers are always detached
// first — and detached servers are checked individually, keeping
// crashed machines on their last setting: there is nothing to actuate
// on a powered-off machine, and counting phantom transitions would
// corrupt the actuation accounting.
func (f *ClassFleet) ApplyAlive(c server.Config, down func(i int) bool) error {
	if !c.Valid() {
		return fmt.Errorf("pmk: invalid config %v", c)
	}
	for i := range f.classes {
		k := &f.classes[i]
		if k.count > 0 && c != k.cur {
			k.transitions += k.count
		}
		k.cur = c
	}
	for i := range f.detached {
		d := &f.detached[i]
		if down != nil && down(d.index) {
			continue
		}
		if c != d.cur {
			d.transitions++
		}
		d.cur = c
	}
	return nil
}

// Apply applies a config to server i only, detaching it from its class
// herd the first time: the server leaves with its share of the herd's
// transition count.
func (f *ClassFleet) Apply(i int, c server.Config) error {
	if i < 0 || i >= f.size {
		return fmt.Errorf("pmk: apply: server %d of %d", i, f.size)
	}
	if !c.Valid() {
		return fmt.Errorf("pmk: invalid config %v", c)
	}
	pos, ok := f.findDetached(i)
	if !ok {
		class := f.classOf(i)
		k := &f.classes[class]
		share := k.transitions / k.count
		k.count--
		k.transitions -= share
		//greensprint:allow(allocfree) detached list grows once per newly crashed/isolated server, bounded by the fault schedule
		f.detached = append(f.detached, detachedKnob{})
		copy(f.detached[pos+1:], f.detached[pos:])
		f.detached[pos] = detachedKnob{index: i, class: class, cur: k.cur, transitions: share}
	}
	d := &f.detached[pos]
	if c != d.cur {
		d.transitions++
	}
	d.cur = c
	return nil
}

// Current returns server i's current setting.
func (f *ClassFleet) Current(i int) server.Config {
	if pos, ok := f.findDetached(i); ok {
		return f.detached[pos].cur
	}
	return f.classes[f.classOf(i)].cur
}

// Configs returns the current config of every server, in index order.
func (f *ClassFleet) Configs() []server.Config {
	out := make([]server.Config, f.size)
	for i := range out {
		out[i] = f.classes[f.classOf(i)].cur
	}
	for _, d := range f.detached {
		out[d.index] = d.cur
	}
	return out
}

// Detached returns how many servers have been individually actuated.
func (f *ClassFleet) Detached() int { return len(f.detached) }

// Transitions returns the fleet-total actuation count: the sum of
// every server's own count.
func (f *ClassFleet) Transitions() int {
	total := 0
	for _, k := range f.classes {
		total += k.transitions
	}
	for _, d := range f.detached {
		total += d.transitions
	}
	return total
}

// ClassKnobSnapshot is one class herd's serializable state.
type ClassKnobSnapshot struct {
	Count       int           `json:"count"`
	Config      server.Config `json:"config"`
	Transitions int           `json:"transitions"`
}

// DetachedKnobSnapshot is one detached server's serializable state.
type DetachedKnobSnapshot struct {
	Index       int           `json:"index"`
	Class       int           `json:"class"`
	Config      server.Config `json:"config"`
	Transitions int           `json:"transitions"`
}

// ClassFleetSnapshot is the serializable state of a ClassFleet.
type ClassFleetSnapshot struct {
	Classes  []ClassKnobSnapshot    `json:"classes"`
	Detached []DetachedKnobSnapshot `json:"detached,omitempty"`
}

// Snapshot captures the fleet's state.
func (f *ClassFleet) Snapshot() ClassFleetSnapshot {
	s := ClassFleetSnapshot{Classes: make([]ClassKnobSnapshot, len(f.classes))}
	for i, k := range f.classes {
		s.Classes[i] = ClassKnobSnapshot{Count: k.count, Config: k.cur, Transitions: k.transitions}
	}
	for _, d := range f.detached {
		s.Detached = append(s.Detached, DetachedKnobSnapshot{
			Index: d.index, Class: d.class, Config: d.cur, Transitions: d.transitions,
		})
	}
	return s
}

// Restore replaces the fleet's state from a snapshot taken from a
// fleet with the same class structure: each class's herd count plus
// its detached members must make up the class.
func (f *ClassFleet) Restore(s ClassFleetSnapshot) error {
	if len(s.Classes) != len(f.classes) {
		return fmt.Errorf("pmk: restore: snapshot has %d classes, fleet has %d", len(s.Classes), len(f.classes))
	}
	perClass := make([]int, len(f.classes))
	for i, k := range s.Classes {
		if !k.Config.Valid() {
			return fmt.Errorf("pmk: restore class %d: invalid config %v", i, k.Config)
		}
		if k.Count < 0 || k.Transitions < 0 {
			return fmt.Errorf("pmk: restore class %d: negative count or transitions", i)
		}
		perClass[i] = k.Count
	}
	prev := -1
	for j, d := range s.Detached {
		switch {
		case d.Index <= prev:
			return fmt.Errorf("pmk: restore: detached index %d out of order", d.Index)
		case d.Index >= f.size:
			return fmt.Errorf("pmk: restore: detached server %d of %d", d.Index, f.size)
		case d.Class < 0 || d.Class >= len(f.classes):
			return fmt.Errorf("pmk: restore: detached server %d class %d of %d", d.Index, d.Class, len(f.classes))
		case f.classOf(d.Index) != d.Class:
			return fmt.Errorf("pmk: restore: detached server %d is class %d, snapshot says %d", d.Index, f.classOf(d.Index), d.Class)
		case !d.Config.Valid():
			return fmt.Errorf("pmk: restore detached %d: invalid config %v", j, d.Config)
		case d.Transitions < 0:
			return fmt.Errorf("pmk: restore detached %d: negative transitions", j)
		}
		prev = d.Index
		perClass[d.Class]++
	}
	// perClass now counts herd + detached members per class; each must
	// make up its class.
	for i, n := range perClass {
		if n != f.sizes[i] {
			return fmt.Errorf("pmk: restore: snapshot covers %d servers of class %d, fleet has %d", n, i, f.sizes[i])
		}
	}
	for i, k := range s.Classes {
		f.classes[i] = classKnob{count: k.Count, cur: k.Config, transitions: k.Transitions}
	}
	f.detached = f.detached[:0]
	for _, d := range s.Detached {
		f.detached = append(f.detached, detachedKnob{
			index: d.Index, class: d.Class, cur: d.Config, transitions: d.Transitions,
		})
	}
	return nil
}

// RestoreFlat restores the fleet from the flat per-knob layout. Each
// class's herd takes the setting of its first server not reported
// down; servers reported down, and knobs whose setting differs from
// their herd's, are detached with their own state. Herd members'
// transition counts are summed into the herd, so every server's count
// is conserved and a flat snapshot of this fleet restores to it
// exactly. down may be nil when no server can be down.
func (f *ClassFleet) RestoreFlat(s FleetSnapshot, down func(i int) bool) error {
	if len(s.Knobs) != f.size {
		return fmt.Errorf("pmk: restore: snapshot has %d knobs, fleet has %d", len(s.Knobs), f.size)
	}
	isDown := func(i int) bool { return down != nil && down(i) }
	out := ClassFleetSnapshot{Classes: make([]ClassKnobSnapshot, len(f.classes))}
	seen := make([]bool, len(f.classes))
	for i := range out.Classes {
		out.Classes[i].Config = server.Normal()
	}
	for i, k := range s.Knobs {
		if c := f.classOf(i); !seen[c] && !isDown(i) {
			out.Classes[c].Config, seen[c] = k.Config, true
		}
	}
	for i, k := range s.Knobs {
		if k.Transitions < 0 {
			return fmt.Errorf("pmk: restore: knob %d has negative transition count %d", i, k.Transitions)
		}
		c := f.classOf(i)
		herd := &out.Classes[c]
		if isDown(i) || k.Config != herd.Config {
			out.Detached = append(out.Detached, DetachedKnobSnapshot{
				Index: i, Class: c, Config: k.Config, Transitions: k.Transitions,
			})
			continue
		}
		herd.Count++
		herd.Transitions += k.Transitions
	}
	return f.Restore(out)
}
