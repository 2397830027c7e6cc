// Package trace provides fixed-step time series used throughout
// GreenSprint: renewable power production traces (NREL-style one-minute
// irradiance/power records), workload intensity traces and power-draw
// logs. A Trace is a start time, a sampling step and a slice of float64
// samples; the package supplies slicing, resampling, scaling,
// summary statistics and CSV round-tripping.
package trace

import (
	"errors"
	"math"
	"time"
)

// Trace is a regularly sampled time series. The i-th sample covers the
// half-open interval [Start+i*Step, Start+(i+1)*Step).
type Trace struct {
	Name    string
	Start   time.Time
	Step    time.Duration
	Samples []float64
}

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("trace: empty trace")

// New creates a trace with the given name, start, step and samples.
// It panics if step is not positive, since a zero-step trace is always
// a programming error.
func New(name string, start time.Time, step time.Duration, samples []float64) *Trace {
	if step <= 0 {
		panic("trace: non-positive step")
	}
	return &Trace{Name: name, Start: start, Step: step, Samples: samples}
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Duration returns the total time covered by the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.Samples)) * t.Step
}

// End returns the instant just past the last sample.
func (t *Trace) End() time.Time { return t.Start.Add(t.Duration()) }

// TimeAt returns the start time of sample i.
func (t *Trace) TimeAt(i int) time.Time {
	return t.Start.Add(time.Duration(i) * t.Step)
}

// At returns the sample covering instant ts. Instants before the trace
// return the first sample; instants past the end return the last. An
// empty trace returns 0.
func (t *Trace) At(ts time.Time) float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	i := int(ts.Sub(t.Start) / t.Step)
	if i < 0 {
		i = 0
	}
	if i >= len(t.Samples) {
		i = len(t.Samples) - 1
	}
	return t.Samples[i]
}

// Clone returns a deep copy.
func (t *Trace) Clone() *Trace {
	s := make([]float64, len(t.Samples))
	copy(s, t.Samples)
	return &Trace{Name: t.Name, Start: t.Start, Step: t.Step, Samples: s}
}

// Scale multiplies every sample by k and returns a new trace.
func (t *Trace) Scale(k float64) *Trace {
	out := t.Clone()
	for i := range out.Samples {
		out.Samples[i] *= k
	}
	return out
}

// ScaleToPeak rescales the trace so that its maximum equals peak. A
// trace whose maximum is zero is returned unchanged (cloned).
func (t *Trace) ScaleToPeak(peak float64) *Trace {
	max := t.Max()
	if max == 0 {
		return t.Clone()
	}
	return t.Scale(peak / max)
}

// Clip limits each sample to [lo, hi] and returns a new trace.
func (t *Trace) Clip(lo, hi float64) *Trace {
	out := t.Clone()
	for i, v := range out.Samples {
		out.Samples[i] = math.Min(math.Max(v, lo), hi)
	}
	return out
}

// Slice returns the sub-trace covering [from, to). Times are clamped to
// the trace bounds. The returned trace shares no storage with t.
func (t *Trace) Slice(from, to time.Time) *Trace {
	i := int(from.Sub(t.Start) / t.Step)
	j := int((to.Sub(t.Start) + t.Step - 1) / t.Step)
	if i < 0 {
		i = 0
	}
	if j > len(t.Samples) {
		j = len(t.Samples)
	}
	if j < i {
		j = i
	}
	s := make([]float64, j-i)
	copy(s, t.Samples[i:j])
	return &Trace{Name: t.Name, Start: t.TimeAt(i), Step: t.Step, Samples: s}
}

// Window returns the samples covering [from, from+d) without copying
// time metadata; convenient for statistics over an epoch.
func (t *Trace) Window(from time.Time, d time.Duration) []float64 {
	i := int(from.Sub(t.Start) / t.Step)
	j := int(from.Add(d).Sub(t.Start) / t.Step)
	if i < 0 {
		i = 0
	}
	if j > len(t.Samples) {
		j = len(t.Samples)
	}
	if j < i {
		j = i
	}
	return t.Samples[i:j]
}

// Resample converts the trace to a new step by averaging (downsampling)
// or sample-holding (upsampling). The result covers the same period.
func (t *Trace) Resample(step time.Duration) (*Trace, error) {
	if step <= 0 {
		return nil, errors.New("trace: non-positive resample step")
	}
	if len(t.Samples) == 0 {
		return nil, ErrEmpty
	}
	if step == t.Step {
		return t.Clone(), nil
	}
	n := int(math.Ceil(float64(t.Duration()) / float64(step)))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		winFrom := t.Start.Add(time.Duration(i) * step)
		w := t.Window(winFrom, step)
		if len(w) == 0 {
			// Upsampling: hold the covering sample.
			out[i] = t.At(winFrom)
			continue
		}
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		out[i] = sum / float64(len(w))
	}
	return &Trace{Name: t.Name, Start: t.Start, Step: step, Samples: out}, nil
}

// Repeat tiles the trace n times end to end.
func (t *Trace) Repeat(n int) *Trace {
	if n < 1 {
		n = 1
	}
	s := make([]float64, 0, n*len(t.Samples))
	for i := 0; i < n; i++ {
		s = append(s, t.Samples...)
	}
	return &Trace{Name: t.Name, Start: t.Start, Step: t.Step, Samples: s}
}

// Stats summarizes a trace.
type Stats struct {
	Min, Max, Mean, Std float64
	N                   int
}

// Stats computes summary statistics. An empty trace yields zeros.
func (t *Trace) Stats() Stats {
	return computeStats(t.Samples)
}

func computeStats(s []float64) Stats {
	if len(s) == 0 {
		return Stats{}
	}
	st := Stats{Min: s[0], Max: s[0], N: len(s)}
	sum := 0.0
	for _, v := range s {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
	}
	st.Mean = sum / float64(len(s))
	var sq float64
	for _, v := range s {
		d := v - st.Mean
		sq += d * d
	}
	st.Std = math.Sqrt(sq / float64(len(s)))
	return st
}

// Max returns the maximum sample, or 0 for an empty trace.
func (t *Trace) Max() float64 { return t.Stats().Max }

// Mean returns the mean sample, or 0 for an empty trace.
func (t *Trace) Mean() float64 { return t.Stats().Mean }

// Integral returns the time integral of the trace in value-hours
// (e.g. a power trace in watts yields watt-hours).
func (t *Trace) Integral() float64 {
	h := t.Step.Hours()
	sum := 0.0
	for _, v := range t.Samples {
		sum += v * h
	}
	return sum
}
