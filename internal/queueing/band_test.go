package queueing

import (
	"math"
	"math/rand"
	"testing"
)

// tailEvals replays SojournPercentile's search and counts its Tail-sized
// evaluations: the Newton iterations, the band's two checks and every
// probe inside the band.
func tailEvals(s Station, lambda, q float64) int {
	if q <= 0 || q >= 1 || s.Utilization(lambda) >= 1 {
		return 0
	}
	target := 1 - q
	tp := s.TailParams(lambda)
	band := tp.band(target)
	r, evals := tp.root(target)
	if r > 0 {
		evals += 2
	}
	inside := func(d float64) bool { return d > band.lo && d < band.hi }
	lo, hi := 0.0, 1/s.ServiceRate
	for {
		if inside(hi) {
			evals++
		}
		if !band.above(tp, hi, target) {
			break
		}
		if hi *= 2; hi > 1e9 {
			return evals
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if inside(mid) {
			evals++
		}
		if band.above(tp, mid, target) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return evals
}

// randomStation draws a station and load from the space the guided
// bisection must cover: 1–12 servers, service rates over five decades,
// utilizations up to 1−1e-12, and loads at and around the one that
// makes the drain rate equal the service rate (a ≈ μ).
func randomStation(rng *rand.Rand) (Station, float64) {
	s := Station{Servers: 1 + rng.Intn(12), ServiceRate: math.Pow(10, -1+5*rng.Float64())}
	var rho float64
	switch rng.Intn(4) {
	case 0:
		rho = rng.Float64()
	case 1:
		rho = 1 - math.Pow(10, -12*rng.Float64())
	case 2:
		rho = math.Pow(10, -8*rng.Float64())
	default:
		deg := float64(s.Servers-1) / float64(s.Servers)
		rho = deg * (1 + (2*rng.Float64()-1)*math.Pow(10, -14*rng.Float64()))
	}
	return s, rho * s.Capacity()
}

// randomQuantile draws q from anywhere in (0, 1), weighted toward the
// SLA percentiles and both ends.
func randomQuantile(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return rng.Float64()
	case 1:
		return 1 - math.Pow(10, -16*rng.Float64())
	case 2:
		return math.Pow(10, -16*rng.Float64())
	default:
		return []float64{0.9, 0.95, 0.99, 0.999}[rng.Intn(4)]
	}
}

func checkPercentileMatches(t testing.TB, s Station, lambda, q float64) {
	t.Helper()
	got, want := s.SojournPercentile(lambda, q), refSojournPercentile(s, lambda, q)
	if !sameBits(got, want) {
		t.Fatalf("%+v λ=%v q=%v: SojournPercentile %v, reference %v", s, lambda, q, got, want)
	}
}

// TestSojournPercentileGuidedMatchesReference compares the guided
// bisection with the unguided 80-step loop bit for bit over random
// stations, loads and quantiles.
func TestSojournPercentileGuidedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		s, lambda := randomStation(rng)
		checkPercentileMatches(t, s, lambda, randomQuantile(rng))
	}
}

// TestSojournPercentileBandVerifies checks that the band is what makes
// the search cheap on the workloads' own stations: at the SLA
// percentiles and loads below saturation it verifies, and the search
// evaluates Tail far fewer times than the ~57 of the unguided loops.
func TestSojournPercentileBandVerifies(t *testing.T) {
	for c := 1; c <= 12; c++ {
		for _, mu := range fixedPointRates {
			s := Station{Servers: c, ServiceRate: mu}
			for _, rho := range []float64{0.1, 0.5, 0.8, 0.95} {
				lambda := rho * s.Capacity()
				for _, q := range fixedPointQs {
					tp := s.TailParams(lambda)
					if tp.degenerate {
						continue
					}
					if b := tp.band(1 - q); math.IsInf(b.lo, -1) {
						t.Errorf("%+v ρ=%v q=%v: band did not verify", s, rho, q)
					}
					if n := tailEvals(s, lambda, q); n > 30 {
						t.Errorf("%+v ρ=%v q=%v: %d Tail evaluations", s, rho, q, n)
					}
				}
			}
		}
	}
}

// FuzzSojournPercentile checks the guided bisection against the
// unguided loop bit for bit: 1–12 servers, utilization up to 1−1e-12,
// loads around a ≈ μ, and any quantile.
func FuzzSojournPercentile(f *testing.F) {
	f.Add(uint8(4), 55.5, 0.9, 0.99)
	f.Add(uint8(1), 10.0, 0.0, 0.5)
	f.Add(uint8(12), 380.0, 1-1e-12, 0.999)
	f.Add(uint8(2), 100.0, 0.5, 0.99)          // a = μ exactly
	f.Add(uint8(2), 100.0, 0.5*(1+1e-13), 0.9) // a ≈ μ
	f.Fuzz(func(t *testing.T, c uint8, mu, rho, q float64) {
		s := Station{Servers: 1 + int(c)%12, ServiceRate: mu}
		if s.Validate() != nil || mu < 1e-6 || mu > 1e9 || !(rho >= 0 && rho <= 1-1e-12) || math.IsNaN(q) {
			t.Skip()
		}
		checkPercentileMatches(t, s, rho*s.Capacity(), q)
	})
}

var percentileSink float64

// BenchmarkSojournPercentileMoving measures the percentile search when
// the offered rate changes every op, as a replayed trace does, so no
// caller-side cache can help. It reports Tail evaluations per op.
func BenchmarkSojournPercentileMoving(b *testing.B) {
	const loads = 64
	s := Station{Servers: 12, ServiceRate: 380}
	rates := make([]float64, loads)
	for i := range rates {
		rates[i] = s.Capacity() * (0.3 + 0.6*float64(i)/loads)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		percentileSink = s.SojournPercentile(rates[i%loads], 0.99)
	}
	b.StopTimer()
	evals := 0
	for _, lambda := range rates {
		evals += tailEvals(s, lambda, 0.99)
	}
	b.ReportMetric(float64(evals)/loads, "evals/op")
}
