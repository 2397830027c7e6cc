package battery

import "fmt"

// Snapshot is the serializable state of one battery unit: everything
// that evolves during a run. The configuration itself is not captured —
// a snapshot is restored into a unit built from the same Config, and
// Restore rejects state a unit of that configuration could never reach.
type Snapshot struct {
	// SoC is the state of charge as a fraction of rated capacity.
	SoC float64 `json:"soc"`
	// DischargedAh is the cumulative discharged charge (rated-Ah
	// equivalent) backing cycle accounting.
	DischargedAh float64 `json:"discharged_ah"`
	// CapacityFade and Resistance are the cumulative chaos-degradation
	// multipliers. Both are omitted from the wire format while 1 (an
	// undegraded unit), which keeps pre-degradation snapshots byte-
	// compatible: Restore treats an absent (zero) value as 1.
	CapacityFade float64 `json:"capacity_fade,omitempty"`
	Resistance   float64 `json:"resistance,omitempty"`
}

// Snapshot captures the unit's mutable state.
func (b *Battery) Snapshot() Snapshot {
	s := Snapshot{SoC: b.soc, DischargedAh: b.dischargedAh}
	if b.capFade != 1 {
		s.CapacityFade = b.capFade
	}
	if b.resist != 1 {
		s.Resistance = b.resist
	}
	return s
}

// Restore replaces the unit's mutable state with a snapshot taken from
// a unit of the same configuration.
func (b *Battery) Restore(s Snapshot) error {
	if s.SoC < 0 || s.SoC > 1 || s.SoC != s.SoC {
		return fmt.Errorf("battery: restore: SoC %v outside [0,1]", s.SoC)
	}
	if s.DischargedAh < 0 || s.DischargedAh != s.DischargedAh {
		return fmt.Errorf("battery: restore: negative discharged charge %v", s.DischargedAh)
	}
	fade, resist := s.CapacityFade, s.Resistance
	if fade == 0 {
		fade = 1
	}
	if resist == 0 {
		resist = 1
	}
	if !(fade > 0 && fade <= 1) {
		return fmt.Errorf("battery: restore: capacity fade %v outside (0,1]", fade)
	}
	if !(resist >= 1) {
		return fmt.Errorf("battery: restore: resistance %v below 1", resist)
	}
	b.soc = s.SoC
	b.dischargedAh = s.DischargedAh
	b.capFade = fade
	b.resist = resist
	// Degradation (or its reversal, when rewinding to a pre-fault
	// snapshot) changes the Peukert curve: drop any memoized answer.
	b.maxSust = maxSustMemo{}
	return nil
}

// BankSnapshot is the serializable state of a bank: its groups, runs
// of units in identical state keyed by class. Units is the legacy
// per-unit form — one Snapshot per unit, in unit order — that
// checkpoints cut before the paper's rack ran as a one-class bank
// carry; ClassBank.Restore folds it into groups. Exactly one of the two
// shapes is populated.
type BankSnapshot struct {
	Units  []Snapshot      `json:"units"`
	Groups []GroupSnapshot `json:"groups,omitempty"`
}

// GroupSnapshot is one ClassBank group: Count units of class Class
// sharing the captured mutable state.
type GroupSnapshot struct {
	Class int      `json:"class"`
	Count int      `json:"count"`
	State Snapshot `json:"state"`
}
