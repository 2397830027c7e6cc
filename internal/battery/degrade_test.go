package battery

import (
	"testing"
	"time"

	"greensprint/internal/units"
)

// TestDegradeValidation pins the factor ranges.
func TestDegradeValidation(t *testing.T) {
	b, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ cap, res float64 }{
		{0, 1.1}, {-0.5, 1.1}, {1.5, 1.1}, {0.9, 0.9}, {0.9, -1},
	} {
		if err := b.Degrade(tc.cap, tc.res); err == nil {
			t.Errorf("Degrade(%v, %v) accepted", tc.cap, tc.res)
		}
	}
	if err := b.Degrade(0.8, 1.25); err != nil {
		t.Fatal(err)
	}
	if b.CapacityFade() != 0.8 || b.Resistance() != 1.25 {
		t.Errorf("fade/resist = %v/%v, want 0.8/1.25", b.CapacityFade(), b.Resistance())
	}
	// Factors compound.
	if err := b.Degrade(0.5, 2); err != nil {
		t.Fatal(err)
	}
	if b.CapacityFade() != 0.4 || b.Resistance() != 2.5 {
		t.Errorf("compounded fade/resist = %v/%v, want 0.4/2.5", b.CapacityFade(), b.Resistance())
	}
}

// TestDegradeShortensRuntime sanity-checks the physics: a faded,
// higher-resistance unit sustains less power and drains sooner.
func TestDegradeShortensRuntime(t *testing.T) {
	healthy, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	faded, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	if err := faded.Degrade(0.7, 1.4); err != nil {
		t.Fatal(err)
	}
	const p = units.Watt(40)
	if faded.RemainingTime(p) >= healthy.RemainingTime(p) {
		t.Errorf("faded RemainingTime %v !< healthy %v", faded.RemainingTime(p), healthy.RemainingTime(p))
	}
	d := 10 * time.Minute
	if fs, hs := faded.MaxSustainablePower(d), healthy.MaxSustainablePower(d); fs >= hs {
		t.Errorf("faded MaxSustainablePower %v !< healthy %v", fs, hs)
	}
	if fu, hu := faded.UsableEnergy(), healthy.UsableEnergy(); fu >= hu {
		t.Errorf("faded UsableEnergy %v !< healthy %v", fu, hu)
	}
}

// TestDegradeInvalidatesMemo is the PR 4 regression the chaos engine
// depends on: a warmed bisection memo must not survive a mid-run
// degradation. The degraded unit's answers are compared bit-for-bit
// against a unit that was degraded before ever answering.
func TestDegradeInvalidatesMemo(t *testing.T) {
	d := 10 * time.Minute
	warm, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	warm.MaxSustainablePower(d) // warm the memo at (soc=1, d)
	if err := warm.Degrade(0.8, 1.2); err != nil {
		t.Fatal(err)
	}

	cold, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Degrade(0.8, 1.2); err != nil {
		t.Fatal(err)
	}

	if w, c := warm.MaxSustainablePower(d), cold.MaxSustainablePower(d); w != c {
		t.Errorf("memo served stale bisection: warm %v, cold %v", w, c)
	}
	const p = units.Watt(30)
	if w, c := warm.RemainingTime(p), cold.RemainingTime(p); w != c {
		t.Errorf("RemainingTime: warm %v, cold %v", w, c)
	}
}

// TestBankDegradeSharedMemos is the bank-level half of the regression:
// a group's units share one exemplar, so one bisection and one Peukert
// full-drain time serve them all. Degrading one unit mid-run must break
// it out of its group — the degraded bank's answers are compared
// bit-for-bit against a bank rebuilt from scratch into the same
// per-unit state (fresh memos everywhere).
func TestBankDegradeSharedMemos(t *testing.T) {
	d := 10 * time.Minute
	const draw = units.Watt(90)

	bank := newBank(t, ServerBattery(), 3)
	// Warm every shared path, discharge a little so SoC is off the
	// trivial 1.0, then degrade the middle unit.
	bank.MaxSustainablePower(d)
	bank.RemainingTime(draw)
	if _, err := bank.Discharge(draw, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	bank.MaxSustainablePower(d)
	bank.RemainingTime(draw)
	if err := bank.DegradeUnit(1, 0.75, 1.3); err != nil {
		t.Fatal(err)
	}

	// Rebuild the exact same per-unit state in a fresh bank: same
	// snapshots (SoC, wear, degradation), no warmed memos.
	fresh := newBank(t, ServerBattery(), 3)
	if err := fresh.Restore(bank.Snapshot()); err != nil {
		t.Fatal(err)
	}

	if a, b := bank.MaxSustainablePower(d), fresh.MaxSustainablePower(d); a != b {
		t.Errorf("MaxSustainablePower: degraded-in-place %v, fresh-built %v", a, b)
	}
	if a, b := bank.RemainingTime(draw), fresh.RemainingTime(draw); a != b {
		t.Errorf("RemainingTime: degraded-in-place %v, fresh-built %v", a, b)
	}
	// The degraded unit must answer differently from its healthy
	// neighbours (equal SoC), or the sharing guard isn't keying on
	// degradation at all.
	if u0, u1 := bank.Unit(0), bank.Unit(1); u0.SoC() == u1.SoC() &&
		u0.MaxSustainablePower(d) == u1.MaxSustainablePower(d) {
		t.Error("degraded unit borrowed its healthy neighbour's bisection")
	}
	// And continued evolution stays in lockstep.
	bank.Discharge(draw, 5*time.Minute)
	fresh.Discharge(draw, 5*time.Minute)
	if a, b := bank.MaxSustainablePower(d), fresh.MaxSustainablePower(d); a != b {
		t.Errorf("post-discharge MaxSustainablePower: %v vs %v", a, b)
	}
	if a, b := bank.SoC(), fresh.SoC(); a != b {
		t.Errorf("post-discharge SoC: %v vs %v", a, b)
	}
}

// TestDegradedSnapshotRoundTrip checks the omitempty wire format: an
// undegraded unit's snapshot carries no degradation fields (byte
// compatibility with pre-chaos checkpoints), a degraded unit's
// snapshot restores exactly, and garbage is rejected.
func TestDegradedSnapshotRoundTrip(t *testing.T) {
	b, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	if s := b.Snapshot(); s.CapacityFade != 0 || s.Resistance != 0 {
		t.Errorf("undegraded snapshot carries degradation: %+v", s)
	}
	if err := b.Degrade(0.85, 1.15); err != nil {
		t.Fatal(err)
	}
	s := b.Snapshot()
	if s.CapacityFade != 0.85 || s.Resistance != 1.15 {
		t.Errorf("degraded snapshot = %+v", s)
	}
	fresh, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(s); err != nil {
		t.Fatal(err)
	}
	if fresh.CapacityFade() != 0.85 || fresh.Resistance() != 1.15 {
		t.Errorf("restored fade/resist = %v/%v", fresh.CapacityFade(), fresh.Resistance())
	}
	// Zero-valued fields (a pre-chaos snapshot) restore as undegraded.
	if err := fresh.Restore(Snapshot{SoC: 0.9, DischargedAh: 1}); err != nil {
		t.Fatal(err)
	}
	if fresh.CapacityFade() != 1 || fresh.Resistance() != 1 {
		t.Errorf("pre-chaos snapshot restored degraded: %v/%v", fresh.CapacityFade(), fresh.Resistance())
	}
	for _, bad := range []Snapshot{
		{SoC: 1, CapacityFade: -0.5},
		{SoC: 1, CapacityFade: 1.5},
		{SoC: 1, Resistance: 0.5},
	} {
		if err := fresh.Restore(bad); err == nil {
			t.Errorf("Restore(%+v) accepted", bad)
		}
	}
}

// TestDegradeOutOfRangeUnit pins the bank-level index check.
func TestDegradeOutOfRangeUnit(t *testing.T) {
	bank := newBank(t, ServerBattery(), 2)
	if err := bank.DegradeUnit(2, 0.9, 1.1); err == nil {
		t.Error("unit 2 of 2 accepted")
	}
	if err := bank.DegradeUnit(-1, 0.9, 1.1); err == nil {
		t.Error("unit -1 accepted")
	}
}
