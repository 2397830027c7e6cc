package rl

import (
	"bytes"
	"testing"
)

// TestDegradedLevel pins the fraction→bucket mapping: full capacity is
// the healthy bucket, zero capacity is the worst bucket, and the
// quartiles in between land monotonically.
func TestDegradedLevel(t *testing.T) {
	cases := []struct {
		frac float64
		want int
	}{
		{1.0, 0}, {1.5, 0}, // ≥ 1 is healthy (never negative buckets)
		{0.9, 0}, // mild loss rounds down into the healthy bucket
		{0.7, 1},
		{0.45, 2},
		{0.2, 3},
		{0.0, DegradedLevels - 1}, // everything lost is the worst bucket
		{-0.5, DegradedLevels - 1},
	}
	for _, tc := range cases {
		if got := DegradedLevel(tc.frac); got != tc.want {
			t.Errorf("DegradedLevel(%v) = %d, want %d", tc.frac, got, tc.want)
		}
	}
	// Monotone: less capacity never maps to a healthier bucket.
	prev := 0
	for f := 1.0; f >= 0; f -= 0.01 {
		lvl := DegradedLevel(f)
		if lvl < prev {
			t.Fatalf("DegradedLevel not monotone: f=%v → %d after %d", f, lvl, prev)
		}
		prev = lvl
	}
}

// TestDegradedStatePersistence round-trips a table holding both
// healthy and degraded rows: the Degraded dimension must survive
// serialization, and a table written without degraded rows stays in
// the pre-chaos wire format (no "degraded" keys).
func TestDegradedStatePersistence(t *testing.T) {
	tab, err := NewTable(DefaultLearningRate, DefaultDiscount)
	if err != nil {
		t.Fatal(err)
	}
	healthy := State{PowerLevel: 1, LoadLevel: 2}
	degraded := State{PowerLevel: 1, LoadLevel: 2, Degraded: 3}
	tab.Update(healthy, 0, 1.5, healthy)
	tab.Update(degraded, 0, -2.5, degraded)
	if tab.Q(healthy, 0) == tab.Q(degraded, 0) {
		t.Fatal("healthy and degraded rows share a Q estimate — states collide")
	}

	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"degraded": 3`)) {
		t.Errorf("serialized table lost the degraded dimension: %s", buf.Bytes())
	}
	restored, err := ReadJSON(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Q(degraded, 0), tab.Q(degraded, 0); got != want {
		t.Errorf("restored degraded Q = %v, want %v", got, want)
	}
	if got, want := restored.Q(healthy, 0), tab.Q(healthy, 0); got != want {
		t.Errorf("restored healthy Q = %v, want %v", got, want)
	}

	// A purely healthy table keeps the pre-chaos wire format.
	plain, err := NewTable(DefaultLearningRate, DefaultDiscount)
	if err != nil {
		t.Fatal(err)
	}
	plain.Update(healthy, 0, 1, healthy)
	var buf2 bytes.Buffer
	if err := plain.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf2.Bytes(), []byte(`"degraded"`)) {
		t.Errorf("healthy-only table emits degraded keys: %s", buf2.Bytes())
	}
}
