package queueing

import (
	"math"
	"testing"
)

// The reference copies below are the loops as they stood before Tail
// shared its exp(−μd) term and before the bisections stopped at their
// fixed point. The tests compare the live code against them bit for bit
// over a grid of station sizes, loads and quantiles, so the early exits
// provably change no returned float.

// refTail is TailParams.Tail evaluating exp(−μd) separately in each
// term.
func refTail(p TailParams, d float64) float64 {
	if d <= 0 || p.unstable {
		return 1
	}
	svcTail := math.Exp(-p.mu * d)
	var waitedTail float64
	if p.degenerate {
		waitedTail = math.Exp(-p.mu*d) * (1 + p.mu*d)
	} else {
		waitedTail = (p.a*math.Exp(-p.mu*d) - p.mu*math.Exp(-p.a*d)) / (p.a - p.mu)
	}
	return clamp01((1-p.pw)*svcTail + p.pw*waitedTail)
}

// refSojournPercentile runs all 80 bisection steps.
func refSojournPercentile(s Station, lambda, q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 || s.Utilization(lambda) >= 1 {
		return math.Inf(1)
	}
	target := 1 - q
	tp := s.TailParams(lambda)
	lo, hi := 0.0, 1/s.ServiceRate
	for refTail(tp, hi) > target {
		hi *= 2
		if hi > 1e9 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if refTail(tp, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// refMaxRate runs all 80 bisection steps.
func refMaxRate(s Station, deadline, q float64) float64 {
	if err := s.Validate(); err != nil {
		return 0
	}
	if deadline <= 0 || q <= 0 || q >= 1 {
		return 0
	}
	if refTail(s.TailParams(0), deadline) > 1-q {
		return 0
	}
	lo, hi := 0.0, s.Capacity()
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if refTail(s.TailParams(mid), deadline) <= 1-q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

var (
	fixedPointRates = []float64{0.37, 10, 55.5, 380, 1e4}
	fixedPointRhos  = []float64{0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999}
	fixedPointQs    = []float64{0.9, 0.95, 0.99, 0.999}
)

// fixedPointLoads returns the arrival rates probed for a station: the
// ρ grid, plus the load that makes the drain rate c·μ−λ equal μ (the
// degenerate Erlang-2 branch) and a hair either side of it.
func fixedPointLoads(s Station) []float64 {
	var out []float64
	for _, rho := range fixedPointRhos {
		out = append(out, rho*s.Capacity())
	}
	deg := float64(s.Servers-1) * s.ServiceRate
	return append(out, deg, math.Nextafter(deg, math.Inf(1)), deg*(1+1e-13))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestTailMatchesReference(t *testing.T) {
	ds := []float64{-1, 0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1, 10, 1e3}
	for c := 1; c <= 12; c++ {
		for _, mu := range fixedPointRates {
			s := Station{Servers: c, ServiceRate: mu}
			for _, lambda := range fixedPointLoads(s) {
				tp := s.TailParams(lambda)
				for _, d := range ds {
					if got, want := tp.Tail(d), refTail(tp, d); !sameBits(got, want) {
						t.Errorf("%+v λ=%v d=%v: Tail %v, reference %v", s, lambda, d, got, want)
					}
				}
			}
		}
	}
}

func TestSojournPercentileMatchesReference(t *testing.T) {
	for c := 1; c <= 12; c++ {
		for _, mu := range fixedPointRates {
			s := Station{Servers: c, ServiceRate: mu}
			for _, lambda := range fixedPointLoads(s) {
				for _, q := range fixedPointQs {
					got, want := s.SojournPercentile(lambda, q), refSojournPercentile(s, lambda, q)
					if !sameBits(got, want) {
						t.Errorf("%+v λ=%v q=%v: SojournPercentile %v, reference %v", s, lambda, q, got, want)
					}
				}
			}
		}
	}
}

func TestMaxRateMatchesReference(t *testing.T) {
	for c := 1; c <= 12; c++ {
		for _, mu := range fixedPointRates {
			s := Station{Servers: c, ServiceRate: mu}
			// Deadlines in units of the mean service time, from one the
			// idle station already misses to a loose one.
			for _, k := range []float64{0.5, 2, 5, 20, 100} {
				deadline := k / mu
				for _, q := range fixedPointQs {
					got, want := s.MaxRate(deadline, q), refMaxRate(s, deadline, q)
					if !sameBits(got, want) {
						t.Errorf("%+v deadline=%v q=%v: MaxRate %v, reference %v", s, deadline, q, got, want)
					}
				}
			}
		}
	}
}
