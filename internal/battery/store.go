package battery

import (
	"time"

	"greensprint/internal/units"
)

// Store is the battery-state surface the power-source selector and the
// engine run against. ClassBank implements it; tests and benchmarks
// wrap it to observe or instrument battery calls. Implementations are
// stateful and not safe for concurrent use.
type Store interface {
	// Size returns the number of battery units represented.
	Size() int
	// SoC returns the mean state of charge (1 for an empty store).
	SoC() float64
	// MaxDoD returns the store's depth-of-discharge limit (the most
	// conservative limit across classes; 0 for an empty store).
	MaxDoD() float64
	// MaxSustainablePower returns the aggregate constant power the
	// store can hold for duration d.
	MaxSustainablePower(d time.Duration) units.Watt
	// RemainingTime returns how long the store sustains an aggregate
	// draw split evenly across available units.
	RemainingTime(p units.Watt) time.Duration
	// Discharge draws aggregate power p for duration d and returns
	// the duration sustained.
	Discharge(p units.Watt, d time.Duration) (time.Duration, error)
	// Charge distributes charging power across all units and returns
	// the energy accepted.
	Charge(p units.Watt, d time.Duration) units.WattHour
	// DegradeUnit applies a permanent chaos degradation to unit i.
	DegradeUnit(i int, capFactor, resistFactor float64) error
	// Health returns the mean capacity-fade multiplier across units
	// (1 for an undegraded or empty store) — the degraded-capacity
	// signal failure-aware policies consume.
	Health() float64
	// UsableEnergy returns the aggregate energy above the DoD floors.
	UsableEnergy() units.WattHour
	// EquivalentCycles returns the mean per-unit cycle usage.
	EquivalentCycles() float64
	// Snapshot and Restore round-trip the store's mutable state.
	Snapshot() BankSnapshot
	Restore(BankSnapshot) error
}

var _ Store = (*ClassBank)(nil)
