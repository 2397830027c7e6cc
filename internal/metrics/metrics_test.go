package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewHistogramErrors(t *testing.T) {
	cases := []struct {
		min, max float64
		buckets  int
	}{
		{0, 1, 10},
		{-1, 1, 10},
		{1, 1, 10},
		{2, 1, 10},
		{0.001, 1, 0},
	}
	for i, c := range cases {
		if _, err := NewHistogram(c.min, c.max, c.buckets); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := DefaultLatencyHistogram()
	if countOf(h) != 0 || sumOf(h) != 0 || h.Quantile(0.99) != 0 {
		t.Error("empty histogram should be zeros")
	}
	for _, v := range []float64{0.001, 0.002, 0.003, 0.004} {
		h.Observe(v)
	}
	if countOf(h) != 4 {
		t.Errorf("count = %d", countOf(h))
	}
	if got := sumOf(h); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("sum = %v", got)
	}
	h.Observe(math.NaN())
	if countOf(h) != 4 {
		t.Error("NaN should be ignored")
	}
	h.Reset()
	if countOf(h) != 0 || sumOf(h) != 0 {
		t.Error("Reset should clear")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := DefaultLatencyHistogram()
	rng := rand.New(rand.NewSource(7))
	// Exponential latencies with mean 50 ms.
	n := 100000
	var exact []float64
	for i := 0; i < n; i++ {
		v := rng.ExpFloat64() * 0.050
		exact = append(exact, v)
		h.Observe(v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := exact[int(math.Ceil(q*float64(n)))-1] // nearest rank
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("q=%v: histogram %v vs exact %v", q, got, want)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h, err := NewHistogram(0.001, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(1e-9) // below min
	h.Observe(50)   // above max
	if countOf(h) != 2 {
		t.Errorf("count = %d", countOf(h))
	}
	if q := h.Quantile(1); q < 1 {
		t.Errorf("max quantile = %v, want >= 1", q)
	}
}

// countOf returns the number of recorded samples.
func countOf(h *Histogram) uint64 {
	_, total, _ := h.Cumulative(nil, nil)
	return total
}

// sumOf returns the sum of recorded samples.
func sumOf(h *Histogram) float64 {
	_, _, sum := h.Cumulative(nil, nil)
	return sum
}

// countBelow is the cumulative count Cumulative gives for a single
// bound d, from a fresh resolution of its cut-off.
func countBelow(h *Histogram, d float64) uint64 {
	cum, _, _ := h.Cumulative(nil, h.Cuts([]float64{d}))
	return cum[0]
}

// TestFractionBelow checks the fraction of samples at or below a
// deadline, countBelow over Count.
func TestFractionBelow(t *testing.T) {
	h, _ := NewHistogram(0.001, 10, 400)
	if got := countBelow(h, 1); got != 0 {
		t.Errorf("empty = %v", got)
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.01)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	got := float64(countBelow(h, 0.1)) / float64(countOf(h))
	if math.Abs(got-0.9) > 0.01 {
		t.Errorf("fraction below 0.1 s = %v, want ~0.9", got)
	}
}

func TestWindow(t *testing.T) {
	w := Window{Completed: 3000, Compliant: 2700, Elapsed: time.Minute}
	if got := w.Throughput(); math.Abs(got-50) > 1e-12 {
		t.Errorf("throughput = %v", got)
	}
	if got := w.Goodput(); math.Abs(got-45) > 1e-12 {
		t.Errorf("goodput = %v", got)
	}
	var zero Window
	if zero.Throughput() != 0 || zero.Goodput() != 0 {
		t.Error("zero window conventions")
	}
}

// Property: Quantile is monotone in q and bounded by the histogram
// range.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16, q1Raw, q2Raw uint8) bool {
		h, err := NewHistogram(0.001, 10, 200)
		if err != nil {
			return false
		}
		for _, v := range vals {
			h.Observe(float64(v) / 6553.5)
		}
		q1 := float64(q1Raw)/255*0.99 + 0.005
		q2 := float64(q2Raw)/255*0.99 + 0.005
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := h.Quantile(q1), h.Quantile(q2)
		return a <= b+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the fraction of samples below a threshold, countBelow
// over Count, is monotone in the threshold and never exceeds 1.
func TestFractionBelowMonotoneProperty(t *testing.T) {
	f := func(vals []uint16, d1Raw, d2Raw uint16) bool {
		h, err := NewHistogram(0.001, 10, 200)
		if err != nil {
			return false
		}
		for _, v := range vals {
			h.Observe(float64(v) / 6553.5)
		}
		d1 := float64(d1Raw) / 6553.5
		d2 := float64(d2Raw) / 6553.5
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return countBelow(h, d1) <= countBelow(h, d2) && countBelow(h, d2) <= countOf(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumAndCountBelow(t *testing.T) {
	h := DefaultLatencyHistogram()
	samples := []float64{0.001, 0.002, 0.05, 0.2, 1.5}
	want := 0.0
	for _, s := range samples {
		h.Observe(s)
		want += s
	}
	if got := sumOf(h); math.Abs(got-want) > 1e-12 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	// Each threshold sits well clear of every sample's ~1.5%-wide
	// bucket, so the cumulative count is exactly the samples below it.
	for d, want := range map[float64]uint64{0.0005: 0, 0.003: 2, 0.1: 3, 1: 4, 10: 5, 200: 5} {
		if got := countBelow(h, d); got != want {
			t.Errorf("countBelow(%v) = %d, want %d", d, got, want)
		}
	}
	if countBelow(h, 1000) != countOf(h) {
		t.Errorf("countBelow above max = %d, want total %d", countBelow(h, 1000), countOf(h))
	}
	// One call gives a whole ladder, the total and the sum, appended
	// after what dst already holds.
	cum, total, sum := h.Cumulative([]uint64{7}, h.Cuts([]float64{0.0005, 0.003, 0.1, 1, 10, 200}))
	if !slices.Equal(cum, []uint64{7, 0, 2, 3, 4, 5, 5}) || total != 5 || sum != sumOf(h) {
		t.Errorf("Cumulative = %v, %d, %v; want [7 0 2 3 4 5 5], 5, %v", cum, total, sum, sumOf(h))
	}
}
