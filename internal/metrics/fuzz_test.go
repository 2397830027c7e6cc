package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzHistogram hardens the latency histogram against arbitrary
// observation streams: percentiles must be monotone in q, Count/Sum
// must stay consistent with the stream, and clamped extremes (values
// outside [min,max], infinities) must neither panic nor corrupt the
// counters. NaNs are dropped by contract.
func FuzzHistogram(f *testing.F) {
	f.Add(int64(1), uint16(10), 0.001, 5.0)
	f.Add(int64(42), uint16(1000), 1e-9, 1e12)
	f.Add(int64(7), uint16(0), -3.0, 0.0)
	f.Add(int64(99), uint16(300), math.Inf(1), math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, a, b float64) {
		h, err := NewHistogram(100e-6, 100, 64)
		if err != nil {
			t.Fatal(err)
		}
		// A reproducible stream mixing in-range samples with the two
		// fuzzed extremes (which may be huge, negative, or infinite).
		rng := rand.New(rand.NewSource(seed))
		var want uint64
		var wantSum float64
		observe := func(v float64) {
			h.Observe(v)
			if !math.IsNaN(v) {
				want++
				wantSum += v
			}
		}
		observe(a)
		observe(b)
		observe(math.NaN()) // must be ignored
		for i := 0; i < int(n)%512; i++ {
			observe(math.Exp(rng.Float64()*30 - 15)) // ~1e-7 .. 1e6 seconds
		}

		if countOf(h) != want {
			t.Fatalf("Count = %d, want %d", countOf(h), want)
		}
		if got := sumOf(h); math.Float64bits(got) != math.Float64bits(wantSum) {
			t.Fatalf("Sum = %v, want %v", got, wantSum)
		}

		// Percentile monotonicity over a q ladder, and every quantile
		// within the bucket range.
		prev := math.Inf(-1)
		for q := 0.01; q <= 1.0; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("Quantile(%v) = %v < Quantile(prev) = %v", q, v, prev)
			}
			prev = v
		}
		if want > 0 {
			if hi := h.Quantile(1); hi > h.max*(1+1e-9) {
				t.Fatalf("Quantile(1) = %v beyond histogram max %v", hi, h.max)
			}
			if lo := h.Quantile(0.01); lo <= 0 {
				t.Fatalf("Quantile(0.01) = %v not positive", lo)
			}
		}
		// q outside (0,1] clamps rather than panicking.
		if h.Quantile(0) != 0 {
			t.Fatal("Quantile(0) != 0")
		}
		_ = h.Quantile(2)

		// The cumulative counts are monotone in the bound, bounded by
		// Count, and those of one pass over the ladder's cut-offs are
		// a fresh resolution's for each bound.
		ladder := []float64{1e-6, 1e-3, 1, 10, 1e6}
		cum, total, sum := h.Cumulative(nil, h.Cuts(ladder))
		if total != countOf(h) || math.Float64bits(sum) != math.Float64bits(sumOf(h)) {
			t.Fatalf("Cumulative total %d, sum %v; Count %d, Sum %v", total, sum, countOf(h), sumOf(h))
		}
		var prevCount uint64
		for k, d := range ladder {
			c := cum[k]
			if c > countOf(h) {
				t.Fatalf("cumulative count at %v = %d beyond Count %d", d, c, countOf(h))
			}
			if c < prevCount {
				t.Fatalf("cumulative count at %v = %d < previous %d", d, c, prevCount)
			}
			if one, _, _ := h.Cumulative(nil, h.Cuts([]float64{d})); one[0] != c {
				t.Fatalf("cumulative count at %v = %d in the ladder, %d alone", d, c, one[0])
			}
			prevCount = c
		}

		// Reset really clears.
		h.Reset()
		if countOf(h) != 0 || sumOf(h) != 0 || h.Quantile(0.99) != 0 {
			t.Fatal("Reset left residual state")
		}
	})
}
