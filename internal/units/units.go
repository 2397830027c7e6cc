// Package units provides strongly typed physical quantities used across
// the GreenSprint simulator and controller: power, energy, electric
// charge, voltage, current and CPU frequency.
//
// All quantities are represented as float64 in SI-ish base units (watts,
// watt-hours, amp-hours, volts, amps, megahertz). The named types make
// unit mistakes (e.g. adding watts to watt-hours) visible at compile
// time, while still allowing cheap arithmetic through explicit
// conversions.
package units

import (
	"math"
	"strconv"
	"strings"
	"time"
)

// Watt is an amount of electrical power.
type Watt float64

// WattHour is an amount of electrical energy.
type WattHour float64

// AmpHour is an amount of electric charge, the conventional capacity
// unit for lead-acid batteries.
type AmpHour float64

// Volt is an electric potential.
type Volt float64

// Amp is an electric current.
type Amp float64

// MHz is a CPU frequency in megahertz.
type MHz float64

// Common frequency constants for the paper's testbed (Intel Xeon
// E5-2620: 9 P-states from 1.2 GHz to 2.0 GHz in 100 MHz steps).
const (
	FreqMin  MHz = 1200
	FreqMax  MHz = 2000
	FreqStep MHz = 100
)

// GHz returns the frequency in gigahertz.
func (f MHz) GHz() float64 { return float64(f) / 1000 }

// String renders the frequency in GHz, as the paper reports it.
func (f MHz) String() string {
	return strconv.FormatFloat(f.GHz(), 'f', -1, 64) + "GHz"
}

// String renders power in watts with a sensible precision.
func (w Watt) String() string {
	return trimFloat(float64(w), 2) + "W"
}

// String renders energy in watt-hours.
func (e WattHour) String() string {
	return trimFloat(float64(e), 2) + "Wh"
}

// String renders charge in amp-hours.
func (c AmpHour) String() string {
	return trimFloat(float64(c), 2) + "Ah"
}

func trimFloat(v float64, prec int) string {
	s := strconv.FormatFloat(v, 'f', prec, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}

// Energy returns the energy delivered by power w over duration d.
func (w Watt) Energy(d time.Duration) WattHour {
	return WattHour(float64(w) * d.Hours())
}

// Power returns the constant power that delivers energy e over d.
// It returns 0 for non-positive durations.
func (e WattHour) Power(d time.Duration) Watt {
	h := d.Hours()
	if h <= 0 {
		return 0
	}
	return Watt(float64(e) / h)
}

// Current returns the current drawn at power w from a source at
// voltage v. It returns 0 for non-positive voltages.
func (w Watt) Current(v Volt) Amp {
	if v <= 0 {
		return 0
	}
	return Amp(float64(w) / float64(v))
}

// Power returns the power delivered by current i at voltage v.
func (i Amp) Power(v Volt) Watt { return Watt(float64(i) * float64(v)) }

// Energy converts charge at a given voltage to energy.
func (c AmpHour) Energy(v Volt) WattHour {
	return WattHour(float64(c) * float64(v))
}

// Charge converts energy at a given voltage to charge. It returns 0 for
// non-positive voltages.
func (e WattHour) Charge(v Volt) AmpHour {
	if v <= 0 {
		return 0
	}
	return AmpHour(float64(e) / float64(v))
}

// Clamp limits w to the inclusive range [lo, hi].
func (w Watt) Clamp(lo, hi Watt) Watt {
	if w < lo {
		return lo
	}
	if w > hi {
		return hi
	}
	return w
}

// NearlyEqual reports whether a and b are equal within a relative
// tolerance tol (and an absolute floor of tol for values near zero).
// It is used pervasively by tests on the analytic models.
func NearlyEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}
