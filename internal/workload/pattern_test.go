package workload

import (
	"testing"
	"time"
)

var patternStart = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func TestDurations(t *testing.T) {
	ds := Durations()
	want := []time.Duration{10 * time.Minute, 15 * time.Minute, 30 * time.Minute, 60 * time.Minute}
	if len(ds) != len(want) {
		t.Fatalf("len = %d", len(ds))
	}
	for i := range ds {
		if ds[i] != want[i] {
			t.Errorf("duration %d = %v", i, ds[i])
		}
	}
}

func TestBurstRate(t *testing.T) {
	p := SPECjbb()
	b := Burst{Intensity: 9, Duration: 10 * time.Minute}
	if got, want := b.Rate(p), p.IntensityRate(9); got != want {
		t.Errorf("rate = %v, want %v", got, want)
	}
}

func TestDiurnalPattern(t *testing.T) {
	tr := DiurnalPattern(patternStart, time.Minute)
	if tr.Len() != 24*60 {
		t.Fatalf("len = %d", tr.Len())
	}
	st := tr.Stats()
	// Night trough well below the grid-sustainable level...
	if st.Min > 0.5 {
		t.Errorf("min = %v, want < 0.5", st.Min)
	}
	// ...and the spikes exceed it (that is where sprinting power is
	// demanded, the red ovals of Figure 1).
	if st.Max <= 1.0 {
		t.Errorf("max = %v, want > 1 (load spikes exceed grid capacity)", st.Max)
	}
	if st.Max > 2.0 {
		t.Errorf("max = %v, unreasonably high", st.Max)
	}
	// Several distinct spikes above 1.0: count crossings.
	crossings := 0
	above := false
	for _, v := range tr.Samples {
		if v > 1.0 && !above {
			crossings++
			above = true
		} else if v <= 1.0 {
			above = false
		}
	}
	if crossings < 2 {
		t.Errorf("want >= 2 load spikes above grid capacity, got %d", crossings)
	}
	// Deterministic.
	tr2 := DiurnalPattern(patternStart, time.Minute)
	for i := range tr.Samples {
		if tr.Samples[i] != tr2.Samples[i] {
			t.Fatal("pattern not deterministic")
		}
	}
	// Default step.
	if d := DiurnalPattern(patternStart, 0); d.Step != time.Minute {
		t.Errorf("default step = %v", d.Step)
	}
}
