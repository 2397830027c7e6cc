// Package pss implements GreenSprint's Power Source Selector (§III-A):
// the per-epoch decision of which power sources (green, battery, grid)
// feed the green-provisioned servers, following the paper's three
// cases:
//
//	Case 1: renewable supply covers the demand; surplus charges the
//	        battery.
//	Case 2: renewable supply is insufficient; the battery discharges
//	        to cover the shortfall.
//	Case 3: renewable supply is absent; the battery alone sustains
//	        sprinting, and once it reaches the DoD floor the servers
//	        fall back to grid power (or, as a last resort, bounded
//	        circuit-breaker overdraw).
//
// The PSS also owns the renewable-supply EWMA predictor and the
// Peukert-aware remaining-time recalculation performed after every
// scheduling epoch.
package pss

import (
	"fmt"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/cluster"
	"greensprint/internal/predictor"
	"greensprint/internal/units"
)

// Case identifies which of the paper's three supply cases an epoch
// falls into.
type Case int

const (
	// CaseGreenOnly is Case 1: renewable power alone sustains the
	// demand.
	CaseGreenOnly Case = iota + 1
	// CaseGreenPlusBattery is Case 2: battery supplements green.
	CaseGreenPlusBattery
	// CaseBatteryOnly is Case 3: battery alone (green unavailable).
	CaseBatteryOnly
	// CaseGridFallback is the exhausted end of Case 3: neither green
	// nor battery can carry the demand and servers return to the
	// grid at Normal mode.
	CaseGridFallback
	// CaseBreakerOverdraw is the paper's last resort: the sprint
	// continues on grid power drawn above the budget, tolerated
	// briefly by the circuit breaker's thermal margin.
	CaseBreakerOverdraw
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case CaseGreenOnly:
		return "green-only"
	case CaseGreenPlusBattery:
		return "green+battery"
	case CaseBatteryOnly:
		return "battery-only"
	case CaseGridFallback:
		return "grid-fallback"
	case CaseBreakerOverdraw:
		return "breaker-overdraw"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// greenFloor is the supply below which green power is treated as
// unavailable (sensor noise floor).
const greenFloor units.Watt = 1

// Selector is the stateful PSS for one green rack.
type Selector struct {
	bank battery.Store
	pred *predictor.EWMA
	acct cluster.EnergyAccount
	// stuck models a transfer switch welded to the utility (source)
	// side: the green bus cannot deliver to the servers, so every
	// epoch is grid-fed Normal mode until the switch is freed. The
	// PV feed stays on the green bus, so battery charging from green
	// surplus continues.
	stuck bool
}

// New creates a Selector over a battery store (a ClassBank holding
// one state per battery class) with the paper's EWMA smoothing
// (α = 0.3).
func New(bank battery.Store) *Selector {
	return &Selector{bank: bank, pred: predictor.NewEWMA(predictor.DefaultAlpha)}
}

// Bank exposes the underlying battery store (read-mostly; the
// simulator inspects SoC and wear).
func (s *Selector) Bank() battery.Store { return s.bank }

// Account returns the cumulative energy accounting.
func (s *Selector) Account() cluster.EnergyAccount { return s.acct }

// SetStuck forces (or releases) the stuck-at-source failure mode.
func (s *Selector) SetStuck(stuck bool) { s.stuck = stuck }

// Stuck reports whether the switch is currently welded to the source.
func (s *Selector) Stuck() bool { return s.stuck }

// ObserveSupply feeds the renewable production measured over the epoch
// that just ended (Eq. 1's Obs(t)).
func (s *Selector) ObserveSupply(w units.Watt) { s.pred.Observe(float64(w)) }

// PredictedSupply returns RESupp(t): the EWMA forecast for the next
// epoch.
func (s *Selector) PredictedSupply() units.Watt {
	return units.Watt(s.pred.Predict())
}

// BatterySustainable returns the aggregate power the battery bank can
// hold for the given horizon without breaching its DoD floors —
// BattSupp in the paper, recomputed Peukert-aware each epoch. A stuck
// switch disconnects the bank from the servers, so it contributes 0.
func (s *Selector) BatterySustainable(horizon time.Duration) units.Watt {
	if s.stuck {
		return 0
	}
	return s.bank.MaxSustainablePower(horizon)
}

// AvailablePower returns PowerSupp(t) = RESupp(t) + BattSupp(t): the
// total power the green bus can commit for the next epoch of the given
// length. A stuck switch can commit nothing.
func (s *Selector) AvailablePower(horizon time.Duration) units.Watt {
	if s.stuck {
		return 0
	}
	return s.PredictedSupply() + s.BatterySustainable(horizon)
}

// SustainFraction returns the fraction of an epoch the green bus can
// power `demand` given a green supply of `green`: 1 when green alone
// (or green plus a battery that lasts the epoch) covers it, otherwise
// the Peukert-limited fraction before the battery floor ends the
// sprint.
func (s *Selector) SustainFraction(demand, green units.Watt, epoch time.Duration) float64 {
	if s.stuck {
		if demand <= 0 {
			return 1
		}
		return 0
	}
	if demand <= green {
		return 1
	}
	if epoch <= 0 {
		return 0
	}
	sustain := s.bank.RemainingTime(demand - green)
	if sustain >= epoch {
		return 1
	}
	return float64(sustain) / float64(epoch)
}

// Allocation describes how one epoch's demand was actually powered.
type Allocation struct {
	Case Case
	// Green, Battery and Grid are the average powers drawn from
	// each source over the epoch (time-weighted when the sprint
	// ends mid-epoch).
	Green   units.Watt
	Battery units.Watt
	Grid    units.Watt
	// Charged is the green surplus banked into the batteries.
	Charged units.Watt
	// SprintFraction is the fraction of the epoch during which the
	// requested demand was powered; the remainder ran grid-powered
	// Normal mode. Sprinting "ends when the workload requests are
	// finished or batteries join back in power supply" (§III-A), so
	// a battery that empties mid-epoch ends the sprint there rather
	// than at the epoch boundary.
	SprintFraction float64
	// Sustained reports whether the demand was powered for the
	// whole epoch.
	Sustained bool
}

// Allocate powers `demand` for one epoch from the green bus, mutating
// battery state and energy accounting. gridFallback is the power the
// servers draw when they must return to the grid (Normal mode); it
// applies to whatever part of the epoch green+battery cannot carry,
// which is what SustainFraction leaves uncovered.
func (s *Selector) Allocate(demand, green units.Watt, epoch time.Duration, gridFallback units.Watt) Allocation {
	if demand < 0 {
		demand = 0
	}
	if green < 0 {
		green = 0
	}
	if s.stuck {
		// Welded to the utility side: the whole epoch runs grid-fed
		// Normal mode. The PV feed still reaches the batteries, so
		// green output is banked rather than lost.
		al := Allocation{Case: CaseGridFallback, Grid: gridFallback}
		if green > 0 {
			in := s.bank.Charge(green, epoch)
			al.Charged = in.Power(epoch)
			s.acct.GreenCharged += in
		}
		s.acct.Grid += al.Grid.Energy(epoch)
		return al
	}
	greenUsed := green
	if greenUsed > demand {
		greenUsed = demand
	}
	shortfall := demand - greenUsed
	frac := s.SustainFraction(demand, green, epoch)
	if shortfall > 0 && frac > 0 {
		s.bank.Discharge(shortfall, time.Duration(frac*float64(epoch)))
	}
	al := Allocation{SprintFraction: frac, Sustained: frac >= 1}
	switch {
	case shortfall == 0:
		al.Case = CaseGreenOnly
		al.Green = greenUsed
		if surplus := green - demand; surplus > 0 {
			in := s.bank.Charge(surplus, epoch)
			al.Charged = in.Power(epoch)
			s.acct.GreenCharged += in
		}
	case frac <= 0:
		al.Case = CaseGridFallback
	case green > greenFloor:
		al.Case = CaseGreenPlusBattery
	default:
		al.Case = CaseBatteryOnly
	}
	if al.Case != CaseGreenOnly {
		// Sprint portion: green trickle + battery carry the demand.
		al.Green = units.Watt(float64(greenUsed) * frac)
		al.Battery = units.Watt(float64(shortfall) * frac)
		// Fallback portion: Normal mode on the grid, with any green
		// output offsetting grid draw.
		if frac < 1 {
			gridGreen := green
			if gridGreen > gridFallback {
				gridGreen = gridFallback
			}
			al.Green += units.Watt(float64(gridGreen) * (1 - frac))
			al.Grid = units.Watt(float64(gridFallback-gridGreen) * (1 - frac))
		}
	}
	s.acct.Green += al.Green.Energy(epoch)
	s.acct.Battery += al.Battery.Energy(epoch)
	s.acct.Grid += al.Grid.Energy(epoch)
	return al
}

// AllocateOverdraw powers `demand` for one epoch with green output
// plus grid power drawn above the budget — the breaker-tolerated last
// resort. The caller is responsible for checking the breaker first.
func (s *Selector) AllocateOverdraw(demand, green units.Watt, epoch time.Duration) Allocation {
	if demand < 0 {
		demand = 0
	}
	if green < 0 {
		green = 0
	}
	greenUsed := green
	if greenUsed > demand {
		greenUsed = demand
	}
	al := Allocation{
		Case:           CaseBreakerOverdraw,
		Green:          greenUsed,
		Grid:           demand - greenUsed,
		SprintFraction: 1,
		Sustained:      true,
	}
	s.acct.Green += al.Green.Energy(epoch)
	s.acct.Grid += al.Grid.Energy(epoch)
	return al
}

// NeedsRecharge reports whether the bank has reached the recharge
// trigger (the paper recharges once depth of discharge hits the 40%
// goal; we trigger when mean SoC is at or below the floor plus a small
// hysteresis band).
func (s *Selector) NeedsRecharge() bool {
	if s.bank.Size() == 0 {
		return false
	}
	floor := 1 - s.bank.MaxDoD()
	return s.bank.SoC() <= floor+0.02
}

// RechargeFromGrid charges the bank from the grid during non-sprinting
// epochs (§III-A Case 3: "we charge the battery with grid power in
// anticipation of future sprints"). maxPower caps the grid draw; the
// energy accepted is accounted as GridCharged and returned.
func (s *Selector) RechargeFromGrid(maxPower units.Watt, epoch time.Duration) units.WattHour {
	in := s.bank.Charge(maxPower, epoch)
	s.acct.GridCharged += in
	return in
}

// RechargeFromGreen banks surplus green power outside bursts.
func (s *Selector) RechargeFromGreen(available units.Watt, epoch time.Duration) units.WattHour {
	in := s.bank.Charge(available, epoch)
	s.acct.GreenCharged += in
	return in
}

// SelectorSnapshot is the serializable state of the PSS: the battery
// bank's charge and wear, the supply predictor's EWMA state, and the
// cumulative energy accounting.
type SelectorSnapshot struct {
	Bank      battery.BankSnapshot   `json:"bank"`
	Predictor predictor.EWMASnapshot `json:"predictor"`
	Account   cluster.EnergyAccount  `json:"account"`
	// Stuck is the chaos stuck-at-source flag; omitted while false so
	// fault-free snapshots keep their pre-chaos wire format.
	Stuck bool `json:"stuck,omitempty"`
}

// Snapshot captures the selector's mutable state.
func (s *Selector) Snapshot() SelectorSnapshot {
	return SelectorSnapshot{
		Bank:      s.bank.Snapshot(),
		Predictor: s.pred.Snapshot(),
		Account:   s.acct,
		Stuck:     s.stuck,
	}
}

// Restore replaces the selector's state with a snapshot taken from a
// selector over an identically configured bank.
func (s *Selector) Restore(snap SelectorSnapshot) error {
	if err := s.bank.Restore(snap.Bank); err != nil {
		return fmt.Errorf("pss: %w", err)
	}
	if err := s.pred.Restore(snap.Predictor); err != nil {
		return fmt.Errorf("pss: %w", err)
	}
	s.acct = snap.Account
	s.stuck = snap.Stuck
	return nil
}
