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

		if h.Count() != want {
			t.Fatalf("Count = %d, want %d", h.Count(), want)
		}
		if got := h.Sum(); math.Float64bits(got) != math.Float64bits(wantSum) {
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

		// CountBelow is monotone in the deadline and bounded by Count.
		var prevCount uint64
		for _, d := range []float64{1e-6, 1e-3, 1, 10, 1e6} {
			c := h.CountBelow(d)
			if c > h.Count() {
				t.Fatalf("CountBelow(%v) = %d beyond Count %d", d, c, h.Count())
			}
			if c < prevCount {
				t.Fatalf("CountBelow(%v) = %d < previous %d", d, c, prevCount)
			}
			prevCount = c
		}

		// Reset really clears.
		h.Reset()
		if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.99) != 0 {
			t.Fatal("Reset left residual state")
		}
	})
}
