package cluster

import (
	"fmt"
	"time"

	"greensprint/internal/units"
)

// Breaker models a PDU circuit breaker with a thermal trip curve:
// sustained draw above the rating accumulates thermal stress and trips
// the breaker after a rating-dependent delay; draw at or below the
// rating lets it cool. The paper's PSS treats overloading the breaker
// as "the last resort to maintaining sprinting" and bounds the total
// downstream power to avoid tripping it (§III-A Case 3).
type Breaker struct {
	// Rated is the continuous rating.
	Rated units.Watt
	// MaxOverload is the largest tolerable draw as a multiple of
	// Rated (typical thermal-magnetic breakers pass ~1.25x briefly).
	MaxOverload float64
	// TripAfter is how long a draw at MaxOverload is sustained
	// before the breaker opens; smaller overloads last
	// proportionally longer.
	TripAfter time.Duration

	stress  float64 // accumulated thermal stress in [0,1]
	tripped bool
}

// NewBreaker returns a breaker with the paper-scale defaults: 25%
// overload tolerance for up to 2 minutes.
func NewBreaker(rated units.Watt) *Breaker {
	return &Breaker{Rated: rated, MaxOverload: 1.25, TripAfter: 2 * time.Minute}
}

// Tripped reports whether the breaker has opened.
func (b *Breaker) Tripped() bool { return b.tripped }

// Stress returns the accumulated thermal stress in [0,1]; 1 trips.
func (b *Breaker) Stress() float64 { return b.stress }

// Step advances the breaker by dt under the given draw and returns
// whether it is (now) tripped. Draw above Rated·MaxOverload trips
// immediately (magnetic trip); draw between Rated and the overload
// ceiling accumulates stress linearly; draw at or below Rated decays
// stress at the same rate.
func (b *Breaker) Step(draw units.Watt, dt time.Duration) bool {
	if b.tripped {
		return true
	}
	if b.Rated <= 0 || b.TripAfter <= 0 {
		return false
	}
	ceiling := units.Watt(float64(b.Rated) * b.MaxOverload)
	switch {
	case draw > ceiling:
		b.stress = 1
	case draw > b.Rated:
		// Fractional overload accumulates proportionally: full
		// overload (at the ceiling) costs dt/TripAfter.
		frac := float64(draw-b.Rated) / float64(ceiling-b.Rated)
		b.stress += frac * float64(dt) / float64(b.TripAfter)
	default:
		b.stress -= float64(dt) / float64(b.TripAfter)
		if b.stress < 0 {
			b.stress = 0
		}
	}
	if b.stress >= 1 {
		b.stress = 1
		b.tripped = true
	}
	return b.tripped
}

// Reset closes the breaker and clears the thermal state (a technician
// reclose: it recovers nuisance trips and organic thermal trips alike).
func (b *Breaker) Reset() {
	b.stress = 0
	b.tripped = false
}

// ForceTrip opens the breaker immediately regardless of load — the
// chaos nuisance trip. The thermal state saturates so a snapshot of a
// forced-open breaker restores as tripped.
func (b *Breaker) ForceTrip() {
	b.stress = 1
	b.tripped = true
}

// BreakerSnapshot is the serializable thermal state of a breaker; the
// trip-curve parameters (Rated, MaxOverload, TripAfter) come from the
// configuration the breaker is rebuilt with, not the snapshot.
type BreakerSnapshot struct {
	Stress  float64 `json:"stress"`
	Tripped bool    `json:"tripped"`
}

// Snapshot captures the breaker's mutable state.
func (b *Breaker) Snapshot() BreakerSnapshot {
	return BreakerSnapshot{Stress: b.stress, Tripped: b.tripped}
}

// Restore replaces the breaker's thermal state with a snapshot.
func (b *Breaker) Restore(s BreakerSnapshot) error {
	if s.Stress < 0 || s.Stress > 1 || s.Stress != s.Stress {
		return fmt.Errorf("cluster: restore breaker: stress %v outside [0,1]", s.Stress)
	}
	b.stress = s.Stress
	b.tripped = s.Tripped
	return nil
}

// EnergyAccount accumulates energy delivered per source over a run; it
// feeds the evaluation's renewable-utilization and TCO analyses.
// The account rides inside PSS selector snapshots, so the json tags
// pin its historical wire names.
type EnergyAccount struct {
	Grid    units.WattHour `json:"Grid"`
	Green   units.WattHour `json:"Green"`
	Battery units.WattHour `json:"Battery"`
	// GreenCharged is green energy diverted into batteries (a
	// subset of neither Green nor Battery: it is banked, not
	// delivered to servers).
	GreenCharged units.WattHour `json:"GreenCharged"`
	// GridCharged is grid energy used to recharge batteries after
	// bursts.
	GridCharged units.WattHour `json:"GridCharged"`
}

// Total returns all energy delivered to the IT load.
func (a EnergyAccount) Total() units.WattHour { return a.Grid + a.Green + a.Battery }

// GreenFraction returns the share of delivered energy that came from
// the renewable source (0 when nothing was delivered).
func (a EnergyAccount) GreenFraction() float64 {
	t := a.Total()
	if t <= 0 {
		return 0
	}
	return float64(a.Green) / float64(t)
}
