// Package queueing provides M/M/c queueing machinery used to model the
// paper's interactive workloads (SPECjbb, Web-Search, Memcached). Each
// server runs an open-loop request stream; "performance" in the paper
// is QoS-constrained throughput (e.g. jops at a 99th-percentile 500 ms
// bound), which this package computes from the sojourn-time
// distribution of an M/M/c station.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when a metric is requested for an overloaded
// station (λ ≥ c·μ).
var ErrUnstable = errors.New("queueing: overloaded station (rho >= 1)")

// ErlangB returns the Erlang-B blocking probability for offered load a
// (in erlangs) on c servers, computed with the numerically stable
// recurrence.
func ErlangB(c int, a float64) float64 {
	if c < 0 || a < 0 {
		return math.NaN()
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the probability that an arrival must wait in an
// M/M/c queue with offered load a = λ/μ erlangs. It returns 1 for
// saturated or overloaded stations.
func ErlangC(c int, a float64) float64 {
	if c <= 0 {
		return 1
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1
	}
	b := ErlangB(c, a)
	return b / (1 - rho*(1-b))
}

// Station describes an M/M/c service station.
type Station struct {
	// Servers is the number of parallel servers (cores serving
	// requests, in GreenSprint's use).
	Servers int
	// ServiceRate is the per-server service rate μ in requests per
	// second.
	ServiceRate float64
}

// Validate reports configuration errors.
func (s Station) Validate() error {
	if s.Servers <= 0 {
		return fmt.Errorf("queueing: servers must be positive, got %d", s.Servers)
	}
	if s.ServiceRate <= 0 || math.IsNaN(s.ServiceRate) || math.IsInf(s.ServiceRate, 0) {
		return fmt.Errorf("queueing: invalid service rate %v", s.ServiceRate)
	}
	return nil
}

// Capacity returns the raw service capacity c·μ.
func (s Station) Capacity() float64 { return float64(s.Servers) * s.ServiceRate }

// Utilization returns ρ = λ/(c·μ).
func (s Station) Utilization(lambda float64) float64 {
	return lambda / s.Capacity()
}

// Metrics summarizes steady-state behaviour at arrival rate λ.
type Metrics struct {
	Rho         float64 // utilization
	PWait       float64 // Erlang-C probability of queueing
	MeanWait    float64 // E[Wq], seconds
	MeanSojourn float64 // E[T] = E[Wq] + 1/μ, seconds
}

// Metrics computes steady-state metrics. It returns ErrUnstable for
// λ ≥ capacity.
func (s Station) Metrics(lambda float64) (Metrics, error) {
	if err := s.Validate(); err != nil {
		return Metrics{}, err
	}
	if lambda < 0 {
		return Metrics{}, fmt.Errorf("queueing: negative arrival rate %v", lambda)
	}
	rho := s.Utilization(lambda)
	if rho >= 1 {
		return Metrics{Rho: rho, PWait: 1}, ErrUnstable
	}
	a := lambda / s.ServiceRate
	pw := ErlangC(s.Servers, a)
	drain := s.Capacity() - lambda
	mw := 0.0
	if lambda > 0 {
		mw = pw / drain
	}
	return Metrics{
		Rho:         rho,
		PWait:       pw,
		MeanWait:    mw,
		MeanSojourn: mw + 1/s.ServiceRate,
	}, nil
}

// TailParams holds the λ-dependent constants of the sojourn-tail
// formula: the Erlang-C waiting probability (an O(c) recurrence), the
// service rate and the queue drain rate. They are invariant across
// deadlines, so bisections that probe many deadlines at one fixed λ —
// SojournPercentile, and the workload kernel's latency path — compute
// them once and evaluate Tail per probe, instead of re-running the
// Erlang-C recurrence on every probe.
type TailParams struct {
	mu, a, pw  float64
	degenerate bool // drain rate ≈ service rate: Erlang-2 tail
	unstable   bool // ρ ≥ 1: the tail is identically 1
}

// TailParams precomputes the sojourn-tail constants at arrival rate λ.
// TailParams(λ).Tail(d) is bit-identical to SojournTail(λ, d) for
// every d.
func (s Station) TailParams(lambda float64) TailParams {
	if s.Utilization(lambda) >= 1 {
		return TailParams{unstable: true}
	}
	mu := s.ServiceRate
	a := s.Capacity() - lambda // queue drain rate
	return TailParams{
		mu:         mu,
		a:          a,
		pw:         ErlangC(s.Servers, lambda/mu),
		degenerate: math.Abs(a-mu) < 1e-12*mu,
	}
}

// Tail returns P(T > d) for the station and arrival rate the params
// were computed from.
func (p TailParams) Tail(d float64) float64 {
	if d <= 0 || p.unstable {
		return 1
	}
	svcTail := math.Exp(-p.mu * d)
	var waitedTail float64
	if p.degenerate {
		// Degenerate hypoexponential: Erlang-2 tail.
		waitedTail = svcTail * (1 + p.mu*d)
	} else {
		waitedTail = (p.a*svcTail - p.mu*math.Exp(-p.a*d)) / (p.a - p.mu)
	}
	tail := (1-p.pw)*svcTail + p.pw*waitedTail
	return clamp01(tail)
}

// SojournTail returns P(T > d): the probability a request's total time
// in system (wait + service) exceeds d seconds, at arrival rate λ.
// It uses the exact M/M/c sojourn decomposition: with probability
// 1-PWait the sojourn is the exponential service time; with probability
// PWait it is the sum of an exponential wait (rate cμ-λ) and the
// service time. Overloaded stations return 1.
func (s Station) SojournTail(lambda, d float64) float64 {
	return s.TailParams(lambda).Tail(d)
}

// SojournPercentile returns the q-quantile (0 < q < 1) of the sojourn
// time in seconds at arrival rate λ, found by bisection on the tail.
// It returns +Inf for overloaded stations.
//
// The bisection keeps Tail(lo) > 1−q and !(Tail(hi) > 1−q). Once the
// midpoint rounds onto lo or hi, the update re-assigns that endpoint
// to itself, so every later iteration is a no-op: the loop stops at
// that fixed point (~54 steps) with the bits the full 80 would give.
//
// The search is guided by a Newton root of the tail (see
// TailParams.band): a probe outside the verified band around it takes
// its known outcome instead of evaluating Tail. The doubling steps, the
// midpoints and every probe's outcome are those of the unguided loops,
// so the result is bit-identical to them.
func (s Station) SojournPercentile(lambda, q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 || s.Utilization(lambda) >= 1 {
		return math.Inf(1)
	}
	target := 1 - q
	// λ is fixed across every probe of the bisection, so the Erlang-C
	// constants are computed once rather than ~90 times.
	tp := s.TailParams(lambda)
	band := tp.band(target)
	lo, hi := 0.0, 1/s.ServiceRate
	for band.above(tp, hi, target) {
		hi *= 2
		if hi > 1e9 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if band.above(tp, mid, target) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Guided-bisection constants for SojournPercentile.
//
// tailBandWidth is the least relative half-width w of the band around
// the Newton root r of Tail(d) = 1−q: the band is [r(1−w), r(1+w)],
// widened where Tail's rounding margin needs more room (see band).
//
// tailRounding bounds Tail's absolute rounding error in units of
// 2⁻⁵³·(1 + p_w(a+μ)/|a−μ|): each exp is within an ulp and its rounded
// argument moves it by at most x·e^−x·2⁻⁵³ ≤ 2⁻⁵³/e, the waited term's
// numerator a·e^−μd − μ·e^−ad carries about 4.4(a+μ)·2⁻⁵³ and its
// division by a−μ scales that by 1/|a−μ|; the remaining products and
// sums add a few 2⁻⁵³. 16 is about twice that sum.
//
// Newton's method converges quadratically near the root, so the
// iterate after a step below tailNewtonTol·d is within about
// tailNewtonTol² of it, far inside the band; tailNewtonSteps caps the
// iterations, and a root not found within them leaves the band empty.
const (
	tailBandWidth   = 1e-13
	tailRounding    = 16
	tailNewtonTol   = 1e-7
	tailNewtonSteps = 30
)

// deadlineBand is a verified interval around the root of
// Tail(d) = target: every d at or below lo has Tail(d) > target and
// every d at or above hi has Tail(d) < target. The empty band
// (lo = −∞, hi = +∞) decides every probe by evaluating Tail.
type deadlineBand struct{ lo, hi float64 }

// above reports whether Tail(d) > target, from the band when d lies
// outside it.
func (g deadlineBand) above(p TailParams, d, target float64) bool {
	switch {
	case d <= g.lo:
		return true
	case d >= g.hi:
		return false
	}
	return p.Tail(d) > target
}

// band verifies [L, H] = [r(1−w), r(1+w)] around the Newton root r of
// Tail(d) = target with two Tail evaluations: Tail(L) > target + 2m and
// Tail(H) + 2m < target, where m bounds Tail's rounding anywhere (see
// tailRounding). The exact tail with these parameters is a survival
// function, so it is non-increasing; the computed one is within m of
// it, so every d ≤ L computes Tail(d) ≥ Tail(L) − 2m > target and every
// d ≥ H computes Tail(d) ≤ Tail(H) + 2m < target. No root, or a bracket
// that fails its check, yields the empty band.
func (p TailParams) band(target float64) deadlineBand {
	empty := deadlineBand{lo: math.Inf(-1), hi: math.Inf(1)}
	r, _ := p.root(target)
	if !(r > 0) {
		return empty
	}
	m := tailRounding * 0x1p-53 * (1 + p.pw*(p.a+p.mu)/math.Abs(p.a-p.mu))
	// Near r, Tail(r(1∓w)) − target ≈ ±w·target·ln(1/target) (exact
	// for a single exponential, which the dominant term is), so a band
	// narrower than 4m over that slope could not clear the 2m check.
	w := math.Max(tailBandWidth, 4*m/(target*math.Log(1/target)))
	lo, hi := r*(1-w), r*(1+w)
	if !(p.Tail(lo) > target+2*m) || !(p.Tail(hi)+2*m < target) {
		return empty
	}
	return deadlineBand{lo: lo, hi: hi}
}

// root solves Tail(d) = target by Newton's method on ln Tail and
// returns the root with the number of iterations run. It returns 0 for
// the degenerate Erlang-2 branch, a target outside (0, 1) and a run
// that does not converge within tailNewtonSteps.
func (p TailParams) root(target float64) (float64, int) {
	if p.unstable || p.degenerate || !(target > 0 && target < 1) {
		return 0, 0
	}
	mu, a := p.mu, p.a
	// Tail(d) = c1·e^−μd + c2·e^−ad with c1 + c2 = 1. The term with a
	// positive coefficient and the slower rate dominates, so its
	// single-exponential root starts the iteration.
	c2 := -p.pw * mu / (a - mu)
	c1 := 1 - c2
	d := 0.0
	switch {
	case c1 > 0 && (mu <= a || c2 <= 0):
		d = math.Log(c1/target) / mu
	case c2 > 0:
		d = math.Log(c2/target) / a
	}
	if !(d > 0) || math.IsInf(d, 1) {
		d = 1 / mu
	}
	for i := 1; i <= tailNewtonSteps; i++ {
		svc, wait := math.Exp(-mu*d), math.Exp(-a*d)
		tail := c1*svc + c2*wait
		slope := -(mu*c1*svc + a*c2*wait) // dTail/dd
		if !(tail > 0) || !(slope < 0) {
			return 0, i
		}
		step := math.Log(tail/target) * tail / slope
		next := d - step
		if !(next > 0) {
			next = d / 2
		}
		d = next
		if math.Abs(step) <= tailNewtonTol*d {
			return d, i
		}
	}
	return 0, tailNewtonSteps
}

// MaxRate returns the largest arrival rate λ such that the q-quantile
// of the sojourn time is at most deadline seconds — the QoS-constrained
// throughput (e.g. max jOPS under a 99th-percentile 500 ms SLA). It
// returns 0 when even an idle station misses the deadline (the service
// tail alone exceeds it).
//
// The bisection keeps SojournTail(lo) ≤ 1−q < SojournTail(hi), so it
// stops at the same fixed point as SojournPercentile: once the
// midpoint rounds onto an endpoint, no later step can move lo.
func (s Station) MaxRate(deadline, q float64) float64 {
	if err := s.Validate(); err != nil {
		return 0
	}
	if deadline <= 0 || q <= 0 || q >= 1 {
		return 0
	}
	if s.SojournTail(0, deadline) > 1-q {
		return 0
	}
	lo, hi := 0.0, s.Capacity()
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if s.SojournTail(mid, deadline) <= 1-q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Goodput returns the QoS-compliant throughput at offered rate λ:
// min(λ, MaxRate). The paper reports workload "performance" as exactly
// this quantity (operations per second meeting the latency SLA).
func (s Station) Goodput(offered, deadline, q float64) float64 {
	max := s.MaxRate(deadline, q)
	return math.Min(math.Max(offered, 0), max)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
