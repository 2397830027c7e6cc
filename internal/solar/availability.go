package solar

import (
	"fmt"
	"time"

	"greensprint/internal/trace"
)

// Availability is the renewable-energy availability class used by the
// paper's evaluation (the Min / Med / Max cases of Figures 5-10).
type Availability int

const (
	// Min availability: renewable output is (nearly) absent and
	// sprinting can only be powered by the batteries.
	Min Availability = iota
	// Med availability: renewable output covers roughly half of the
	// sprinting demand; batteries supplement the rest.
	Med
	// Max availability: renewable output alone can carry the
	// maximum sprinting intensity.
	Max
)

// String implements fmt.Stringer.
func (a Availability) String() string {
	switch a {
	case Min:
		return "Min"
	case Med:
		return "Med"
	case Max:
		return "Max"
	default:
		return fmt.Sprintf("Availability(%d)", int(a))
	}
}

// Levels lists the availability classes in evaluation order.
func Levels() []Availability { return []Availability{Min, Med, Max} }

// Synthesize produces a canonical supply trace for an availability
// class: Min is zero output, Med is a half-peak plateau with a mild
// diurnal slope and passing-cloud ripple, Max is a full-peak plateau.
// Every experiment cell runs against it, so a cell's supply depends
// only on its class, length and seed.
func Synthesize(level Availability, d, step time.Duration, peakAC float64, seed int64) *trace.Trace {
	if step <= 0 {
		step = time.Minute
	}
	n := int(d / step)
	if n < 1 {
		n = 1
	}
	samples := make([]float64, n)
	switch level {
	case Min:
		// all zeros
	case Med:
		cl := newCloudProcess(PartlyCloudy, newSeededRand(seed))
		for i := range samples {
			// Plateau at ~55% of peak so that after cloud
			// attenuation the mean lands near half peak.
			samples[i] = 0.62 * peakAC * cl.next()
		}
	case Max:
		cl := newCloudProcess(Clear, newSeededRand(seed))
		for i := range samples {
			v := 1.04 * peakAC * cl.next()
			if v > peakAC {
				v = peakAC
			}
			samples[i] = v
		}
	}
	name := fmt.Sprintf("solar_synth_%s", level)
	return trace.New(name, time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC), step, samples)
}
