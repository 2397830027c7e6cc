package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func mk(samples ...float64) *Trace {
	return New("test", t0, time.Minute, samples)
}

func TestNewPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero step")
		}
	}()
	New("bad", t0, 0, nil)
}

func TestBasics(t *testing.T) {
	tr := mk(1, 2, 3, 4)
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Duration() != 4*time.Minute {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if !tr.End().Equal(t0.Add(4 * time.Minute)) {
		t.Errorf("End = %v", tr.End())
	}
	if got := tr.TimeAt(2); !got.Equal(t0.Add(2 * time.Minute)) {
		t.Errorf("TimeAt(2) = %v", got)
	}
}

func TestAt(t *testing.T) {
	tr := mk(10, 20, 30)
	tests := []struct {
		at   time.Time
		want float64
	}{
		{t0, 10},
		{t0.Add(90 * time.Second), 20},
		{t0.Add(10 * time.Minute), 30}, // past end clamps
		{t0.Add(-time.Hour), 10},       // before start clamps
	}
	for _, tt := range tests {
		if got := tr.At(tt.at); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
	var empty Trace
	empty.Step = time.Minute
	if got := empty.At(t0); got != 0 {
		t.Errorf("empty At = %v", got)
	}
}

func TestScaleAndClip(t *testing.T) {
	tr := mk(1, 2, 3)
	s := tr.Scale(2)
	want := []float64{2, 4, 6}
	for i, v := range s.Samples {
		if v != want[i] {
			t.Errorf("Scale[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Original untouched.
	if tr.Samples[0] != 1 {
		t.Error("Scale mutated the receiver")
	}
	c := tr.Clip(1.5, 2.5)
	wantC := []float64{1.5, 2, 2.5}
	for i, v := range c.Samples {
		if v != wantC[i] {
			t.Errorf("Clip[%d] = %v, want %v", i, v, wantC[i])
		}
	}
}

func TestScaleToPeak(t *testing.T) {
	tr := mk(1, 4, 2)
	p := tr.ScaleToPeak(211.75)
	if !nearly(p.Max(), 211.75) {
		t.Errorf("peak = %v", p.Max())
	}
	if !nearly(p.Samples[0], 211.75/4) {
		t.Errorf("sample0 = %v", p.Samples[0])
	}
	z := mk(0, 0).ScaleToPeak(100)
	if z.Max() != 0 {
		t.Errorf("zero trace should stay zero, got max %v", z.Max())
	}
}

func TestSliceAndWindow(t *testing.T) {
	tr := mk(0, 1, 2, 3, 4, 5)
	s := tr.Slice(t0.Add(time.Minute), t0.Add(3*time.Minute))
	if s.Len() != 2 || s.Samples[0] != 1 || s.Samples[1] != 2 {
		t.Errorf("Slice = %+v", s.Samples)
	}
	if !s.Start.Equal(t0.Add(time.Minute)) {
		t.Errorf("Slice start = %v", s.Start)
	}
	// Out-of-range slicing clamps.
	s2 := tr.Slice(t0.Add(-time.Hour), t0.Add(time.Hour))
	if s2.Len() != 6 {
		t.Errorf("clamped slice len = %d", s2.Len())
	}
	// Reversed range is empty.
	s3 := tr.Slice(t0.Add(3*time.Minute), t0)
	if s3.Len() != 0 {
		t.Errorf("reversed slice len = %d", s3.Len())
	}
	w := tr.Window(t0.Add(2*time.Minute), 2*time.Minute)
	if len(w) != 2 || w[0] != 2 || w[1] != 3 {
		t.Errorf("Window = %v", w)
	}
}

func TestResampleDown(t *testing.T) {
	tr := mk(1, 3, 5, 7)
	r, err := tr.Resample(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Samples[0] != 2 || r.Samples[1] != 6 {
		t.Errorf("Resample down = %+v", r.Samples)
	}
}

func TestResampleUp(t *testing.T) {
	tr := mk(10, 20)
	r, err := tr.Resample(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 4 {
		t.Fatalf("Resample up len = %d", r.Len())
	}
	want := []float64{10, 10, 20, 20}
	for i, v := range r.Samples {
		if v != want[i] {
			t.Errorf("up[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestResampleErrors(t *testing.T) {
	tr := mk(1)
	if _, err := tr.Resample(0); err == nil {
		t.Error("expected error for zero step")
	}
	var empty Trace
	empty.Step = time.Minute
	if _, err := empty.Resample(time.Second); err == nil {
		t.Error("expected error for empty trace")
	}
	same, err := tr.Resample(time.Minute)
	if err != nil || same.Len() != 1 {
		t.Errorf("identity resample: %v %v", same, err)
	}
}

func TestRepeat(t *testing.T) {
	tr := mk(1, 2)
	r := tr.Repeat(3)
	if r.Len() != 6 {
		t.Errorf("Repeat len = %d", r.Len())
	}
	if r.Samples[4] != 1 || r.Samples[5] != 2 {
		t.Errorf("Repeat tail = %v", r.Samples[4:])
	}
	if tr.Repeat(0).Len() != 2 {
		t.Error("Repeat(0) should behave like Repeat(1)")
	}
}

func TestStats(t *testing.T) {
	tr := mk(2, 4, 4, 4, 5, 5, 7, 9)
	st := tr.Stats()
	if st.Min != 2 || st.Max != 9 || st.N != 8 {
		t.Errorf("Stats = %+v", st)
	}
	if !nearly(st.Mean, 5) {
		t.Errorf("Mean = %v", st.Mean)
	}
	if !nearly(st.Std, 2) {
		t.Errorf("Std = %v", st.Std)
	}
	var empty Trace
	if s := empty.Stats(); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestIntegral(t *testing.T) {
	// 60 W for two minutes = 2 Wh.
	tr := mk(60, 60)
	if got := tr.Integral(); !nearly(got, 2) {
		t.Errorf("Integral = %v, want 2", got)
	}
}

func nearly(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// Property: Slice never yields samples outside the original value set
// bounds, and Integral is additive over a split.
func TestIntegralAdditiveProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n)%50 + 2
		s := make([]float64, m)
		for i := range s {
			s[i] = rng.Float64() * 500
		}
		tr := mk(s...)
		mid := t0.Add(time.Duration(m/2) * time.Minute)
		a := tr.Slice(t0, mid)
		b := tr.Slice(mid, tr.End())
		return nearly(a.Integral()+b.Integral(), tr.Integral())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Resample preserves the integral when downsampling by an
// exact divisor of the length.
func TestResampleIntegralProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make([]float64, 60)
		for i := range s {
			s[i] = rng.Float64() * 300
		}
		tr := mk(s...)
		r, err := tr.Resample(5 * time.Minute)
		if err != nil {
			return false
		}
		return nearly(r.Integral(), tr.Integral())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
