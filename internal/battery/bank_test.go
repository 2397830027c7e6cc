package battery

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"greensprint/internal/units"
)

// newBank builds a one-class bank of n units (an empty bank for n = 0),
// the shape cluster.GreenConfig.NewBank gives the paper's rack.
func newBank(t *testing.T, cfg Config, n int) *ClassBank {
	t.Helper()
	var specs []ClassSpec
	if n > 0 {
		specs = []ClassSpec{{Config: cfg, Count: n}}
	}
	b, err := NewClassBank(specs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBankEmpty(t *testing.T) {
	b := newBank(t, ServerBattery(), 0)
	if b.Size() != 0 {
		t.Errorf("size = %d", b.Size())
	}
	if got := b.MaxSustainablePower(time.Minute); got != 0 {
		t.Errorf("empty bank power = %v", got)
	}
	if got := b.RemainingTime(100); got != 0 {
		t.Errorf("empty bank remaining = %v", got)
	}
	if _, err := b.Discharge(100, time.Minute); !errors.Is(err, ErrEmpty) {
		t.Errorf("discharge err = %v", err)
	}
	if b.SoC() != 1 {
		t.Error("empty bank SoC convention is 1")
	}
	if b.Charge(100, time.Minute) != 0 {
		t.Error("empty bank should accept no charge")
	}
	if b.EquivalentCycles() != 0 {
		t.Error("empty bank cycles")
	}
	if b.MaxDoD() != 0 {
		t.Error("empty bank MaxDoD")
	}
}

func TestBankInvalidConfig(t *testing.T) {
	bad := ServerBattery()
	bad.Voltage = 0
	if _, err := NewClassBank([]ClassSpec{{Config: bad, Count: 2}}); err == nil {
		t.Error("expected config error")
	}
	if _, err := NewClassBank([]ClassSpec{{Config: ServerBattery(), Count: 0}}); err == nil {
		t.Error("expected count error")
	}
}

func TestBankSplitsEvenly(t *testing.T) {
	bank := newBank(t, ServerBattery(), 3)
	single, _ := New(ServerBattery())
	// 3 units at 155 W each aggregate to 465 W with the same
	// endurance as one unit at 155 W.
	if got, want := bank.RemainingTime(465), single.RemainingTime(155); !durNear(got, want, time.Second) {
		t.Errorf("bank remaining = %v, single = %v", got, want)
	}
	took, err := bank.Discharge(465, 5*time.Minute)
	if err != nil || took != 5*time.Minute {
		t.Fatalf("took %v err %v", took, err)
	}
	for i := 0; i < bank.Size(); i++ {
		if bank.Unit(i).SoC() >= 1 {
			t.Errorf("unit %d untouched", i)
		}
	}
	// All units drained evenly.
	if a, b := bank.Unit(0).SoC(), bank.Unit(2).SoC(); !units.NearlyEqual(a, b, 1e-12) {
		t.Errorf("uneven SoC: %v vs %v", a, b)
	}
}

func TestBankUsableEnergyAndCharge(t *testing.T) {
	bank := newBank(t, ServerBattery(), 2)
	if got := bank.UsableEnergy(); !units.NearlyEqual(float64(got), 96, 1e-9) {
		t.Errorf("2x48Wh = %v", got)
	}
	bank.Discharge(200, 10*time.Minute)
	before := bank.SoC()
	if in := bank.Charge(60, 10*time.Minute); in <= 0 {
		t.Error("bank should accept charge")
	}
	if bank.SoC() <= before {
		t.Error("bank SoC should rise")
	}
	bank.Reset()
	if bank.SoC() != 1 {
		t.Error("Reset should fill the bank")
	}
}

func TestBankDrainsToFloor(t *testing.T) {
	bank := newBank(t, SmallServerBattery(), 3)
	took, err := bank.Discharge(465, time.Hour)
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if took >= 10*time.Minute {
		t.Errorf("small bank sustained %v at max draw", took)
	}
	if bank.MaxSustainablePower(time.Minute) != 0 {
		t.Error("drained bank should sustain nothing")
	}
	if bank.EquivalentCycles() < 0.99 {
		t.Errorf("cycles = %v", bank.EquivalentCycles())
	}
}

func TestBankNoOps(t *testing.T) {
	bank := newBank(t, ServerBattery(), 2)
	if took, err := bank.Discharge(0, time.Minute); took != 0 || err != nil {
		t.Error("zero power no-op")
	}
	if took, err := bank.Discharge(100, 0); took != 0 || err != nil {
		t.Error("zero duration no-op")
	}
	if bank.RemainingTime(0) <= 0 {
		t.Error("zero power lasts forever")
	}
}

// refBank is a minimal per-unit reference model of a one-class bank:
// one Battery per unit, every aggregate summed unit by unit in index
// order, no grouping and no shared answers.
type refBank struct{ units []*Battery }

func newRefBank(t *testing.T, cfg Config, n int) *refBank {
	t.Helper()
	r := &refBank{}
	for i := 0; i < n; i++ {
		u, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.units = append(r.units, u)
	}
	return r
}

func (r *refBank) available() []*Battery {
	var out []*Battery
	for _, u := range r.units {
		if !u.AtFloor() {
			out = append(out, u)
		}
	}
	return out
}

func (r *refBank) MaxSustainablePower(d time.Duration) units.Watt {
	var sum units.Watt
	for _, u := range r.available() {
		sum += u.MaxSustainablePower(d)
	}
	return sum
}

func (r *refBank) RemainingTime(p units.Watt) time.Duration {
	avail := r.available()
	if p <= 0 {
		return 1<<63 - 1
	}
	if len(avail) == 0 {
		return 0
	}
	per := units.Watt(float64(p) / float64(len(avail)))
	min := time.Duration(1<<63 - 1)
	for _, u := range avail {
		if t := u.RemainingTime(per); t < min {
			min = t
		}
	}
	return min
}

func (r *refBank) Discharge(p units.Watt, d time.Duration) (time.Duration, error) {
	avail := r.available()
	if p <= 0 || d <= 0 {
		return 0, nil
	}
	if len(avail) == 0 {
		return 0, ErrEmpty
	}
	per := units.Watt(float64(p) / float64(len(avail)))
	min := d
	var firstErr error
	for _, u := range avail {
		took, err := u.Discharge(per, d)
		if took < min {
			min = took
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return min, firstErr
}

func (r *refBank) Charge(p units.Watt, d time.Duration) units.WattHour {
	if len(r.units) == 0 || p <= 0 || d <= 0 {
		return 0
	}
	per := units.Watt(float64(p) / float64(len(r.units)))
	var total units.WattHour
	for _, u := range r.units {
		total += u.Charge(per, d)
	}
	return total
}

func (r *refBank) UsableEnergy() units.WattHour {
	var sum units.WattHour
	for _, u := range r.units {
		sum += u.UsableEnergy()
	}
	return sum
}

// mean averages f over the units, summing in index order.
func (r *refBank) mean(f func(*Battery) float64, empty float64) float64 {
	if len(r.units) == 0 {
		return empty
	}
	sum := 0.0
	for _, u := range r.units {
		sum += f(u)
	}
	return sum / float64(len(r.units))
}

// TestBankMatchesPerUnitModel is the differential property behind the
// paper rack running as a one-class bank: over seeded random
// Charge/Discharge/DegradeUnit sequences on 1–3 units, the grouped bank
// and the per-unit reference agree bit for bit on SoC, cycles, health,
// usable energy, sustainable power and remaining time — however the
// degradations split the groups.
func TestBankMatchesPerUnitModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := ServerBattery()
		if rng.Intn(2) == 0 {
			cfg = SmallServerBattery()
		}
		n := 1 + rng.Intn(3)
		got, ref := newBank(t, cfg, n), newRefBank(t, cfg, n)
		for step := 0; step < 40; step++ {
			d := time.Duration(1+rng.Intn(15)) * time.Minute
			switch op := rng.Intn(5); {
			case op < 2:
				p := units.Watt(rng.Float64() * 150 * float64(n))
				gt, ge := got.Discharge(p, d)
				rt, re := ref.Discharge(p, d)
				if gt != rt || (ge == nil) != (re == nil) {
					t.Fatalf("seed %d step %d: Discharge(%v, %v) = %v, %v; reference %v, %v", seed, step, p, d, gt, ge, rt, re)
				}
			case op < 4:
				p := units.Watt(rng.Float64() * 80 * float64(n))
				if g, r := got.Charge(p, d), ref.Charge(p, d); g != r {
					t.Fatalf("seed %d step %d: Charge(%v, %v) = %v, reference %v", seed, step, p, d, g, r)
				}
			default:
				i := rng.Intn(n)
				capF, resF := 0.6+0.4*rng.Float64(), 1+0.5*rng.Float64()
				if err := got.DegradeUnit(i, capF, resF); err != nil {
					t.Fatal(err)
				}
				if err := ref.units[i].Degrade(capF, resF); err != nil {
					t.Fatal(err)
				}
			}
			checks := []struct {
				name     string
				got, ref float64
			}{
				{"SoC", got.SoC(), ref.mean((*Battery).SoC, 1)},
				{"EquivalentCycles", got.EquivalentCycles(), ref.mean((*Battery).EquivalentCycles, 0)},
				{"Health", got.Health(), ref.mean((*Battery).CapacityFade, 1)},
				{"UsableEnergy", float64(got.UsableEnergy()), float64(ref.UsableEnergy())},
				{"MaxSustainablePower", float64(got.MaxSustainablePower(d)), float64(ref.MaxSustainablePower(d))},
				{"RemainingTime", float64(got.RemainingTime(100)), float64(ref.RemainingTime(100))},
			}
			for _, c := range checks {
				if math.Float64bits(c.got) != math.Float64bits(c.ref) {
					t.Fatalf("seed %d step %d (%d units, %d groups): %s = %v, reference %v",
						seed, step, n, got.Groups(), c.name, c.got, c.ref)
				}
			}
		}
	}
}

// TestBankRestoreLegacyUnits checks the per-unit shim: a units snapshot
// (the form checkpoints carried before the rack ran as a one-class
// bank) folds into groups — neighbours in identical state sharing one —
// and restores the exact per-unit state.
func TestBankRestoreLegacyUnits(t *testing.T) {
	ref := newRefBank(t, ServerBattery(), 3)
	ref.Discharge(200, 10*time.Minute)
	if err := ref.units[0].Degrade(0.8, 1.2); err != nil {
		t.Fatal(err)
	}
	legacy := BankSnapshot{}
	for _, u := range ref.units {
		legacy.Units = append(legacy.Units, u.Snapshot())
	}
	b := newBank(t, ServerBattery(), 3)
	if err := b.Restore(legacy); err != nil {
		t.Fatal(err)
	}
	if b.Groups() != 2 {
		t.Errorf("folded into %d groups, want 2 (degraded unit 0, healthy units 1-2)", b.Groups())
	}
	for i, u := range ref.units {
		if got, want := b.Unit(i).Snapshot(), u.Snapshot(); got != want {
			t.Errorf("unit %d restored as %+v, want %+v", i, got, want)
		}
	}
	if g, r := b.MaxSustainablePower(time.Hour), ref.MaxSustainablePower(time.Hour); g != r {
		t.Errorf("restored MaxSustainablePower %v, reference %v", g, r)
	}
}

// TestBankRestoreRejectsMalformedUnits pins the shim's input checks:
// a wrong unit count, a NaN SoC or a fade outside (0,1] is an error,
// never a panic, and leaves the bank untouched.
func TestBankRestoreRejectsMalformedUnits(t *testing.T) {
	good := Snapshot{SoC: 0.9, DischargedAh: 1}
	for _, tc := range []struct {
		name  string
		snap  BankSnapshot
		match string
	}{
		{"too few units", BankSnapshot{Units: []Snapshot{good, good}}, "2 units"},
		{"too many units", BankSnapshot{Units: []Snapshot{good, good, good, good}}, "4 units"},
		{"NaN SoC", BankSnapshot{Units: []Snapshot{good, {SoC: math.NaN()}, good}}, "SoC"},
		{"fade above 1", BankSnapshot{Units: []Snapshot{good, good, {SoC: 1, CapacityFade: 1.5}}}, "fade"},
		{"negative fade", BankSnapshot{Units: []Snapshot{{SoC: 1, CapacityFade: -0.2}, good, good}}, "fade"},
		{"both shapes", BankSnapshot{Units: []Snapshot{good, good, good},
			Groups: []GroupSnapshot{{Count: 3, State: good}}}, "both"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBank(t, ServerBattery(), 3)
			err := b.Restore(tc.snap)
			if err == nil || !strings.Contains(err.Error(), tc.match) {
				t.Fatalf("Restore = %v, want an error mentioning %q", err, tc.match)
			}
			if b.SoC() != 1 || b.Groups() != 1 {
				t.Errorf("failed restore changed the bank: SoC %v, %d groups", b.SoC(), b.Groups())
			}
		})
	}
}
