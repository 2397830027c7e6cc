// Package battery models the server-level valve-regulated lead-acid
// (VRLA) batteries that GreenSprint uses to smooth the renewable
// supply. Following the paper (§II "Battery"), batteries are
// characterized by Peukert's law with exponent k = 1.15, a 40 % maximum
// depth of discharge (DoD) that preserves a ~1300-cycle lifetime, and
// rate-dependent effective capacity (a 24 Ah unit delivers only 12 Ah
// at a 12-minute rate).
//
// The model tracks state of charge as a fraction of rated capacity and
// integrates Peukert-corrected discharge over time-varying loads using
// the fractional-depletion method: at constant current I the time to
// empty is t(I) = H·(C/(I·H))^k, so a step of dt consumes dt/t(I) of
// the full charge.
package battery

import (
	"errors"
	"fmt"
	"math"
	"time"

	"greensprint/internal/units"
)

// Config describes a battery unit.
type Config struct {
	// Voltage is the nominal terminal voltage (12 V in the paper).
	Voltage units.Volt
	// Capacity is the rated capacity at the RatedHours discharge
	// rate (e.g. 10 Ah at the 20-hour rate).
	Capacity units.AmpHour
	// RatedHours is the discharge duration at which Capacity is
	// specified; lead-acid batteries are conventionally rated at
	// the 20-hour rate.
	RatedHours float64
	// PeukertK is Peukert's exponent; the paper uses 1.15 for
	// lead-acid.
	PeukertK float64
	// MaxDoD is the deepest allowed depth of discharge, as a
	// fraction in (0,1]; the paper uses 0.40, which corresponds to
	// a 1300-recharge-cycle lifetime.
	MaxDoD float64
	// ChargeEfficiency is the fraction of charging energy stored
	// (VRLA round-trip losses put this around 0.85).
	ChargeEfficiency float64
	// MaxChargePower caps the charging rate; 0 means a default of a
	// C/4 rate.
	MaxChargePower units.Watt
	// CycleLife is the number of recharge cycles at MaxDoD the unit
	// survives (1300 in the paper).
	CycleLife float64
}

// ServerBattery returns the paper's RE-Batt server-level unit: 12 V,
// 10 Ah, 20-hour rate, k = 1.15, 40 % DoD, 1300 cycles.
func ServerBattery() Config {
	return Config{
		Voltage:          12,
		Capacity:         10,
		RatedHours:       20,
		PeukertK:         1.15,
		MaxDoD:           0.40,
		ChargeEfficiency: 0.85,
		CycleLife:        1300,
	}
}

// SmallServerBattery returns the paper's "SBatt" unit (3.2 Ah).
func SmallServerBattery() Config {
	c := ServerBattery()
	c.Capacity = 3.2
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Voltage <= 0:
		return fmt.Errorf("battery: non-positive voltage %v", c.Voltage)
	case c.Capacity < 0:
		return fmt.Errorf("battery: negative capacity %v", c.Capacity)
	case c.RatedHours <= 0:
		return fmt.Errorf("battery: non-positive rated hours %v", c.RatedHours)
	case c.PeukertK < 1:
		return fmt.Errorf("battery: Peukert exponent %v < 1", c.PeukertK)
	case c.MaxDoD <= 0 || c.MaxDoD > 1:
		return fmt.Errorf("battery: MaxDoD %v outside (0,1]", c.MaxDoD)
	case c.ChargeEfficiency <= 0 || c.ChargeEfficiency > 1:
		return fmt.Errorf("battery: charge efficiency %v outside (0,1]", c.ChargeEfficiency)
	}
	return nil
}

// RatedEnergy is the total energy at the rated capacity.
func (c Config) RatedEnergy() units.WattHour { return c.Capacity.Energy(c.Voltage) }

// ratedCurrent is the current of the RatedHours-rate discharge.
func (c Config) ratedCurrent() units.Amp {
	return units.Amp(float64(c.Capacity) / c.RatedHours)
}

// TimeToEmpty returns the Peukert time to drain a full battery at
// constant power draw. Draws at or below the rated current deplete
// linearly (Peukert correction is only applied above the rated rate,
// where it matters; below it the law would overstate capacity).
func (c Config) TimeToEmpty(p units.Watt) time.Duration {
	if p <= 0 {
		return time.Duration(math.MaxInt64)
	}
	i := float64(p.Current(c.Voltage))
	ir := float64(c.ratedCurrent())
	var hours float64
	if i <= ir {
		hours = float64(c.Capacity) / i
	} else {
		hours = c.RatedHours * math.Pow(float64(c.Capacity)/(i*c.RatedHours), c.PeukertK)
	}
	return time.Duration(hours * float64(time.Hour))
}

// EffectiveCapacity returns the deliverable charge at constant power p,
// illustrating the rate dependence the paper quotes (24 Ah @ 20 h rate
// → 12 Ah @ 12 min rate).
func (c Config) EffectiveCapacity(p units.Watt) units.AmpHour {
	t := c.TimeToEmpty(p)
	if t == time.Duration(math.MaxInt64) {
		return c.Capacity
	}
	i := p.Current(c.Voltage)
	return units.AmpHour(float64(i) * t.Hours())
}

// Battery is a stateful battery unit.
type Battery struct {
	cfg Config
	// soc is the state of charge as a fraction of the unit's current
	// (possibly faded) full capacity.
	soc float64
	// dischargedAh accumulates total discharged charge (rated-Ah
	// equivalent) for cycle accounting.
	dischargedAh float64
	// capFade is the cumulative capacity-fade multiplier in (0,1]:
	// the unit's deliverable capacity is capFade * cfg.Capacity. 1
	// means an undegraded unit, and the undegraded code paths are
	// bit-identical to the pre-degradation model.
	capFade float64
	// resist is the cumulative internal-resistance multiplier (>= 1):
	// a draw of p behaves, Peukert-wise, like a draw of p * resist.
	resist float64
	// maxSust memoizes the last MaxSustainablePower bisection, keyed
	// by the exact (SoC, horizon, degradation) tuple. The PSS asks the
	// same question several times per scheduling epoch between state
	// changes; the memo returns the stored bisection result verbatim,
	// so reuse is bit-identical. Degradation is part of the key — and
	// Degrade/Restore invalidate outright — so a mid-run fade never
	// serves a stale answer.
	maxSust maxSustMemo //greensprint:allow(statecov) derived memo: Snapshot omits it and Restore invalidates it, so the next query re-bisects bit-identically
}

type maxSustMemo struct {
	ok      bool
	soc     float64
	d       time.Duration
	capFade float64
	resist  float64
	val     units.Watt
}

// ErrEmpty is returned when a discharge request hits the DoD floor.
var ErrEmpty = errors.New("battery: at depth-of-discharge floor")

// New creates a fully charged battery. It returns an error for invalid
// configurations.
func New(cfg Config) (*Battery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxChargePower == 0 {
		cfg.MaxChargePower = units.Watt(float64(cfg.Capacity) / 4 * float64(cfg.Voltage))
	}
	return &Battery{cfg: cfg, soc: 1, capFade: 1, resist: 1}, nil
}

// Degrade applies a permanent degradation step: capacity fades by
// capFactor (in (0,1]) and internal resistance rises by resistFactor
// (>= 1). Factors compound across calls. Degradation invalidates the
// bisection memo so no pre-fade answer survives.
func (b *Battery) Degrade(capFactor, resistFactor float64) error {
	if !(capFactor > 0 && capFactor <= 1) {
		return fmt.Errorf("battery: capacity-fade factor %v outside (0,1]", capFactor)
	}
	if !(resistFactor >= 1) {
		return fmt.Errorf("battery: resistance factor %v below 1", resistFactor)
	}
	b.capFade *= capFactor
	b.resist *= resistFactor
	b.maxSust = maxSustMemo{}
	return nil
}

// CapacityFade returns the cumulative capacity-fade multiplier (1 for
// an undegraded unit).
func (b *Battery) CapacityFade() float64 { return b.capFade }

// Resistance returns the cumulative internal-resistance multiplier (1
// for an undegraded unit).
func (b *Battery) Resistance() float64 { return b.resist }

// timeToEmpty is Config.TimeToEmpty through the unit's degradation:
// capacity scaled by capFade, draw inflated by resist. The undegraded
// case delegates to the config verbatim so a healthy unit stays
// bit-identical to the pre-degradation model.
func (b *Battery) timeToEmpty(p units.Watt) time.Duration {
	if b.capFade == 1 && b.resist == 1 {
		return b.cfg.TimeToEmpty(p)
	}
	c := b.cfg
	c.Capacity = units.AmpHour(float64(c.Capacity) * b.capFade)
	return c.TimeToEmpty(units.Watt(float64(p) * b.resist))
}

// Config returns the battery configuration.
func (b *Battery) Config() Config { return b.cfg }

// SoC returns the state of charge in [0,1].
func (b *Battery) SoC() float64 { return b.soc }

// DoD returns the current depth of discharge (1 - SoC).
func (b *Battery) DoD() float64 { return 1 - b.soc }

// AtFloor reports whether the battery has reached the DoD limit.
func (b *Battery) AtFloor() bool { return b.soc <= b.floorSoC()+1e-12 }

func (b *Battery) floorSoC() float64 { return 1 - b.cfg.MaxDoD }

// UsableEnergy returns the energy available above the DoD floor at the
// rated (gentle) discharge rate; high-rate draws deliver less. A faded
// unit holds proportionally less.
func (b *Battery) UsableEnergy() units.WattHour {
	frac := b.soc - b.floorSoC()
	if frac < 0 {
		frac = 0
	}
	return units.WattHour(frac * b.capFade * float64(b.cfg.RatedEnergy()))
}

// RemainingTime returns how long the battery can sustain a constant
// power draw before hitting the DoD floor, applying Peukert's
// correction. This implements the paper's "recalculate the remaining
// discharging time after each scheduling epoch".
func (b *Battery) RemainingTime(p units.Watt) time.Duration {
	if p <= 0 {
		return time.Duration(math.MaxInt64)
	}
	frac := b.soc - b.floorSoC()
	if frac <= 0 {
		return 0
	}
	full := b.timeToEmpty(p)
	return time.Duration(frac * float64(full))
}

// Discharge draws power p for duration d. It returns the duration
// actually sustained: the full d when charge suffices, or the shorter
// Peukert-limited time before the DoD floor, along with ErrEmpty.
// Non-positive power or duration is a no-op.
func (b *Battery) Discharge(p units.Watt, d time.Duration) (time.Duration, error) {
	if p <= 0 || d <= 0 {
		return 0, nil
	}
	sustain := b.RemainingTime(p)
	if sustain <= 0 {
		return 0, ErrEmpty
	}
	took := d
	var err error
	if sustain < d {
		took = sustain
		err = ErrEmpty
	}
	full := b.timeToEmpty(p)
	dropFrac := float64(took) / float64(full)
	b.soc -= dropFrac
	if b.soc < b.floorSoC() {
		b.soc = b.floorSoC()
	}
	b.dischargedAh += dropFrac * float64(b.cfg.Capacity)
	return took, err
}

// MaxSustainablePower returns the largest constant draw the battery can
// hold for at least d without breaching the DoD floor. It returns 0
// when the battery is at the floor. The answer is found by bisection on
// the monotone RemainingTime curve.
func (b *Battery) MaxSustainablePower(d time.Duration) units.Watt {
	if d <= 0 {
		return units.Watt(math.Inf(1))
	}
	if b.AtFloor() {
		return 0
	}
	if b.maxSust.ok && b.maxSust.soc == b.soc && b.maxSust.d == d &&
		b.maxSust.capFade == b.capFade && b.maxSust.resist == b.resist {
		return b.maxSust.val
	}
	lo, hi := 0.0, 100*float64(b.cfg.RatedEnergy()) // generous upper bound
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if b.RemainingTime(units.Watt(mid)) >= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	b.maxSust = maxSustMemo{
		ok: true, soc: b.soc, d: d,
		capFade: b.capFade, resist: b.resist,
		val: units.Watt(lo),
	}
	return units.Watt(lo)
}

// Charge stores energy at power p for duration d (p is the input power
// before conversion losses; the rate is capped at MaxChargePower). It
// returns the energy actually accepted (input side).
func (b *Battery) Charge(p units.Watt, d time.Duration) units.WattHour {
	if p <= 0 || d <= 0 || b.soc >= 1 {
		return 0
	}
	if p > b.cfg.MaxChargePower {
		p = b.cfg.MaxChargePower
	}
	in := p.Energy(d)
	stored := float64(in) * b.cfg.ChargeEfficiency
	// A faded unit has proportionally less room and fills faster.
	cap := b.capFade * float64(b.cfg.RatedEnergy())
	room := (1 - b.soc) * cap
	if stored > room {
		stored = room
		in = units.WattHour(stored / b.cfg.ChargeEfficiency)
	}
	b.soc += stored / cap
	if b.soc > 1 {
		b.soc = 1
	}
	return in
}

// EquivalentCycles returns lifetime usage as the number of
// MaxDoD-deep cycles represented by the cumulative discharged charge.
func (b *Battery) EquivalentCycles() float64 {
	depthAh := b.cfg.MaxDoD * float64(b.cfg.Capacity)
	if depthAh == 0 {
		return 0
	}
	return b.dischargedAh / depthAh
}

// WearFraction returns the consumed fraction of the battery's cycle
// life in [0,1+).
func (b *Battery) WearFraction() float64 {
	if b.cfg.CycleLife <= 0 {
		return 0
	}
	return b.EquivalentCycles() / b.cfg.CycleLife
}

// Reset restores a full charge without clearing wear accounting,
// modelling an off-scenario grid recharge.
func (b *Battery) Reset() { b.soc = 1 }
