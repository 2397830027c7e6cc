// Package fixture holds the pairing cases for the statecov rule:
// half-paired types that must fire and the three accepted pairings
// that must not.
package fixture

// Orphan declares Snapshot with no Restore.
type Orphan struct{ v int }

// Snapshot captures state nothing can put back.
func (o *Orphan) Snapshot() int { return o.v }

// Widow declares Restore with no capture method.
type Widow struct{ v int }

// Restore restores state nothing captured.
func (w *Widow) Restore(v int) { w.v = v }

// Paired is the canonical Snapshot/Restore pair.
type Paired struct{ v int }

// Snapshot captures.
func (p *Paired) Snapshot() int { return p.v }

// Restore restores.
func (p *Paired) Restore(v int) { p.v = v }

// Engineish pairs Restore with a Checkpoint producer, like sim.Engine.
type Engineish struct{ v int }

// Checkpoint captures.
func (e *Engineish) Checkpoint() int { return e.v }

// Restore restores.
func (e *Engineish) Restore(v int) { e.v = v }

// HalfStrategy is an interface declaring only half the State pair.
type HalfStrategy interface {
	SnapshotState() ([]byte, error)
}

// FullStrategy declares the full State pair, like strategy.Strategy.
type FullStrategy interface {
	SnapshotState() ([]byte, error)
	RestoreState(b []byte) error
}
