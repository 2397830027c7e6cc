package battery

import (
	"math"
	"testing"
)

// TestBankHealth pins the degraded-capacity signal: a fresh bank is
// fully healthy, a targeted degradation pulls the mean capacity fade
// down by exactly its share, and an empty bank (REOnly) reads healthy
// rather than dividing by zero.
func TestBankHealth(t *testing.T) {
	b := newBank(t, ServerBattery(), 3)
	if got := b.Health(); got != 1 {
		t.Errorf("fresh bank health = %v, want 1", got)
	}
	if err := b.DegradeUnit(1, 0.7, 1.3); err != nil {
		t.Fatal(err)
	}
	want := (1 + 0.7 + 1) / 3
	if got := b.Health(); math.Abs(got-want) > 1e-12 {
		t.Errorf("degraded bank health = %v, want %v", got, want)
	}
	// Degradation compounds into the mean.
	if err := b.DegradeUnit(1, 0.5, 1.1); err != nil {
		t.Fatal(err)
	}
	want = (1 + 0.35 + 1) / 3
	if got := b.Health(); math.Abs(got-want) > 1e-12 {
		t.Errorf("compounded bank health = %v, want %v", got, want)
	}

	empty := newBank(t, ServerBattery(), 0)
	if got := empty.Health(); got != 1 {
		t.Errorf("empty bank health = %v, want 1", got)
	}
}

// TestClassBankHealth checks the grouped mean: it weights each group
// by its unit count, and splitting a unit out of its group via
// DegradeUnit is reflected exactly.
func TestClassBankHealth(t *testing.T) {
	cb, err := NewClassBank([]ClassSpec{
		{Config: ServerBattery(), Count: 3},
		{Config: SmallServerBattery(), Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.Health(); got != 1 {
		t.Errorf("fresh class bank health = %v, want 1", got)
	}
	if err := cb.DegradeUnit(2, 0.6, 1.5); err != nil {
		t.Fatal(err)
	}
	want := (1 + 1 + 0.6 + 1) / 4
	if got := cb.Health(); math.Abs(got-want) > 1e-12 {
		t.Errorf("degraded class bank health = %v, want %v", got, want)
	}

	// A four-unit one-class bank degraded in its last unit reports the
	// per-unit mean.
	cb2 := newBank(t, ServerBattery(), 4)
	if err := cb2.DegradeUnit(3, 0.8, 1.2); err != nil {
		t.Fatal(err)
	}
	if got, want := cb2.Health(), (1+1+1+0.8)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("degraded one-class bank health = %v, want %v", got, want)
	}
}
