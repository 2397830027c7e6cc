// Package metrics provides the measurement primitives behind
// GreenSprint's Monitor component: log-bucketed histograms with
// quantile estimation and Prometheus-style cumulative counts at `le`
// cut-offs resolved once, and per-epoch throughput/goodput windows.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram is a log-bucketed latency histogram. Buckets grow
// geometrically from Min to Max; values outside the range clamp into
// the first/last bucket. The zero value is not usable; construct with
// NewHistogram. Methods are safe for concurrent use: a scrape may
// render the histogram while observers record into it.
type Histogram struct {
	min, max float64
	growth   float64

	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    float64
}

// NewHistogram creates a histogram covering [min,max] seconds with the
// given number of geometric buckets. It returns an error for
// non-positive bounds or buckets.
func NewHistogram(min, max float64, buckets int) (*Histogram, error) {
	if min <= 0 || max <= min {
		return nil, fmt.Errorf("metrics: invalid histogram range [%v,%v]", min, max)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("metrics: need at least one bucket, got %d", buckets)
	}
	return &Histogram{
		min:    min,
		max:    max,
		growth: math.Pow(max/min, 1/float64(buckets)),
		counts: make([]uint64, buckets),
	}, nil
}

// DefaultLatencyHistogram covers 100 µs to 100 s with ~1.5% resolution,
// suitable for all three workloads' SLAs.
func DefaultLatencyHistogram() *Histogram {
	h, err := NewHistogram(100e-6, 100, 920)
	if err != nil {
		panic(err) // static arguments; cannot fail
	}
	return h
}

// DefaultGoodputHistogram covers 0.1 to 1e6 requests/s with ~1.5%
// resolution: idle trickles through a full Int=12 sprint across all
// three workloads' service rates.
func DefaultGoodputHistogram() *Histogram {
	h, err := NewHistogram(0.1, 1e6, 1080)
	if err != nil {
		panic(err) // static arguments; cannot fail
	}
	return h
}

// Observe records one latency sample in seconds.
func (h *Histogram) Observe(seconds float64) {
	if math.IsNaN(seconds) {
		return
	}
	h.mu.Lock()
	h.counts[h.bucketOf(seconds)]++
	h.total++
	h.sum += seconds
	h.mu.Unlock()
}

func (h *Histogram) bucketOf(v float64) int {
	if v <= h.min {
		return 0
	}
	if v >= h.max {
		return len(h.counts) - 1
	}
	i := int(math.Log(v/h.min) / math.Log(h.growth))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// bucketUpper returns the upper bound of bucket i.
func (h *Histogram) bucketUpper(i int) float64 {
	return h.min * math.Pow(h.growth, float64(i+1))
}

// Cuts resolves an ascending Prometheus `le` ladder, once, to bucket
// cut-offs for Cumulative: cuts[k] counts the leading buckets that lie
// entirely at or below bounds[k], leaving out one straddling it.
func (h *Histogram) Cuts(bounds []float64) []int {
	cuts := make([]int, len(bounds))
	i := 0
	for k, d := range bounds {
		for i < len(h.counts) && h.bucketUpper(i) <= d {
			i++
		}
		cuts[k] = i
	}
	return cuts
}

// Cumulative appends to dst, read under one lock, the cumulative
// count behind each cut-off from Cuts, and returns it with the total
// count and the sum.
func (h *Histogram) Cumulative(dst []uint64, cuts []int) (cum []uint64, total uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i, c := 0, uint64(0)
	for _, n := range cuts {
		for ; i < n; i++ {
			c += h.counts[i]
		}
		dst = append(dst, c)
	}
	return dst, h.total, h.sum
}

// Quantile returns an upper-bound estimate of the q-quantile
// (0 < q ≤ 1). Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return h.bucketUpper(i)
		}
	}
	return h.max
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
}

// Window accumulates throughput and QoS statistics for one scheduling
// epoch.
type Window struct {
	// Completed counts requests finished in the window.
	Completed uint64
	// Compliant counts requests that met the deadline.
	Compliant uint64
	// Elapsed is the window length.
	Elapsed time.Duration
}

// Throughput returns completed requests per second.
func (w Window) Throughput() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Completed) / w.Elapsed.Seconds()
}

// Goodput returns QoS-compliant requests per second — the paper's
// performance metric.
func (w Window) Goodput() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Compliant) / w.Elapsed.Seconds()
}
