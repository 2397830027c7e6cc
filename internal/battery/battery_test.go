package battery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"greensprint/internal/units"
)

func TestConfigValidate(t *testing.T) {
	good := ServerBattery()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Voltage = 0 },
		func(c *Config) { c.Capacity = -1 },
		func(c *Config) { c.RatedHours = 0 },
		func(c *Config) { c.PeukertK = 0.9 },
		func(c *Config) { c.MaxDoD = 0 },
		func(c *Config) { c.MaxDoD = 1.5 },
		func(c *Config) { c.ChargeEfficiency = 0 },
		func(c *Config) { c.ChargeEfficiency = 1.2 },
	}
	for i, mutate := range cases {
		c := ServerBattery()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New should reject invalid config", i)
		}
	}
}

func TestRatedEnergy(t *testing.T) {
	c := ServerBattery()
	if got := c.RatedEnergy(); !units.NearlyEqual(float64(got), 120, 1e-9) {
		t.Errorf("10Ah@12V = %v, want 120Wh", got)
	}
}

func TestTimeToEmptyPeukert(t *testing.T) {
	c := ServerBattery() // 10 Ah @ 20 h, k = 1.15
	// At the rated current (0.5 A = 6 W) the battery lasts exactly
	// RatedHours.
	if got := c.TimeToEmpty(6); !durNear(got, 20*time.Hour, time.Minute) {
		t.Errorf("rated-rate time = %v, want 20h", got)
	}
	// At the paper's 155 W maximal sprint draw (~12.9 A), Peukert
	// gives roughly 28 minutes (analytic check in DESIGN.md §5).
	got := c.TimeToEmpty(155)
	if got < 25*time.Minute || got > 32*time.Minute {
		t.Errorf("155W time = %v, want ~28m", got)
	}
	// Below the rated current, depletion is linear (no Peukert
	// bonus): 3 W = 0.25 A should last 40 h.
	if got := c.TimeToEmpty(3); !durNear(got, 40*time.Hour, time.Minute) {
		t.Errorf("half-rate time = %v, want 40h", got)
	}
	if got := c.TimeToEmpty(0); got != time.Duration(math.MaxInt64) {
		t.Errorf("zero power should last forever, got %v", got)
	}
}

func TestEffectiveCapacityDropsWithRate(t *testing.T) {
	// The paper: a 24 Ah (20-hour) battery delivers only ~12 Ah at a
	// 12-minute discharge rate.
	c := ServerBattery()
	c.Capacity = 24
	// Find the power with a ~12-minute time-to-empty via the rate
	// quoted in the paper: 12 Ah over 12 min = 60 A.
	p := units.Amp(60).Power(c.Voltage)
	if eff := 60 * c.TimeToEmpty(p).Hours(); eff > 14 || eff < 9 {
		t.Errorf("effective capacity at 60A = %v Ah, want ~12", eff)
	}
	// The 20-hour rate recovers the full rating.
	rated := units.Amp(24.0 / 20).Power(c.Voltage)
	if eff := 24.0 / 20 * c.TimeToEmpty(rated).Hours(); !units.NearlyEqual(eff, 24, 1e-6) {
		t.Errorf("20-hour-rate capacity = %v Ah, want 24", eff)
	}
}

func TestDischargeToFloor(t *testing.T) {
	b, err := New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's observation: RE-Batt (10 Ah) sustains the maximal
	// 155 W burst for "more than 10 minutes" under 40% DoD.
	sustain := b.RemainingTime(155)
	if sustain < 10*time.Minute || sustain > 14*time.Minute {
		t.Errorf("10Ah @155W sustain = %v, want 10-14m", sustain)
	}
	took, err := b.Discharge(155, 10*time.Minute)
	if err != nil {
		t.Fatalf("10-minute discharge should succeed fully: %v", err)
	}
	if took != 10*time.Minute {
		t.Errorf("took = %v", took)
	}
	if b.AtFloor() {
		t.Error("should not be at floor after 10 of ~11 minutes")
	}
	// Drain the rest.
	took, err = b.Discharge(155, time.Hour)
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
	if took <= 0 || took >= 5*time.Minute {
		t.Errorf("residual discharge took %v", took)
	}
	if !b.AtFloor() {
		t.Error("battery should be at DoD floor")
	}
	if got, err := b.Discharge(155, time.Minute); got != 0 || !errors.Is(err, ErrEmpty) {
		t.Errorf("discharge at floor: took %v err %v", got, err)
	}
	// DoD never exceeds the configured maximum.
	if dod := b.DoD(); dod > 0.40+1e-9 {
		t.Errorf("DoD = %v exceeds 0.40", dod)
	}
}

func TestSmallBatteryCannotSustainLongBurst(t *testing.T) {
	b, err := New(SmallServerBattery()) // 3.2 Ah
	if err != nil {
		t.Fatal(err)
	}
	// The paper: small batteries cannot sustain long (60-minute)
	// operations; at the maximal sprint they last only ~3 minutes.
	sustain := b.RemainingTime(155)
	if sustain > 5*time.Minute {
		t.Errorf("3.2Ah @155W sustain = %v, want < 5m", sustain)
	}
}

func TestDischargeNoOps(t *testing.T) {
	b, _ := New(ServerBattery())
	if took, err := b.Discharge(0, time.Minute); took != 0 || err != nil {
		t.Error("zero power should be a no-op")
	}
	if took, err := b.Discharge(100, 0); took != 0 || err != nil {
		t.Error("zero duration should be a no-op")
	}
	if b.SoC() != 1 {
		t.Error("no-ops should not change SoC")
	}
}

func TestMaxSustainablePower(t *testing.T) {
	b, _ := New(ServerBattery())
	p := b.MaxSustainablePower(10 * time.Minute)
	// Must hold for 10 minutes...
	if b.RemainingTime(p) < 10*time.Minute-time.Second {
		t.Errorf("RemainingTime(%v) = %v < 10m", p, b.RemainingTime(p))
	}
	// ...and be close to the edge: 5% more power should not.
	if b.RemainingTime(units.Watt(float64(p)*1.05)) >= 10*time.Minute {
		t.Errorf("MaxSustainablePower not tight: %v", p)
	}
	// Longer horizon means less power.
	if p60 := b.MaxSustainablePower(60 * time.Minute); p60 >= p {
		t.Errorf("60m power %v should be < 10m power %v", p60, p)
	}
	// Floor case.
	b.Discharge(155, time.Hour)
	if got := b.MaxSustainablePower(time.Minute); got != 0 {
		t.Errorf("at floor: %v", got)
	}
}

func TestCharge(t *testing.T) {
	b, _ := New(ServerBattery())
	b.Discharge(155, 5*time.Minute)
	socBefore := b.SoC()
	in := b.Charge(30, 10*time.Minute) // 5 Wh input
	if in <= 0 {
		t.Fatal("charge accepted nothing")
	}
	if b.SoC() <= socBefore {
		t.Error("SoC should rise while charging")
	}
	// Full battery accepts nothing.
	b.Reset()
	if in := b.Charge(30, time.Hour); in != 0 {
		t.Errorf("full battery accepted %v", in)
	}
	// Efficiency: stored energy is less than input energy.
	b2, _ := New(ServerBattery())
	b2.Discharge(155, 5*time.Minute)
	missing := float64(b2.Config().RatedEnergy()) * (1 - b2.SoC())
	var totalIn float64
	for i := 0; i < 1000 && b2.SoC() < 1; i++ {
		totalIn += float64(b2.Charge(30, time.Minute))
	}
	if totalIn <= missing {
		t.Errorf("charging input %v should exceed stored %v due to losses", totalIn, missing)
	}
}

func TestChargeCapsAtMaxRate(t *testing.T) {
	cfg := ServerBattery()
	cfg.MaxChargePower = 10
	b, _ := New(cfg)
	b.Discharge(155, 8*time.Minute)
	in := b.Charge(1000, time.Hour)
	// Input capped at 10 W * 1 h = 10 Wh.
	if float64(in) > 10+1e-9 {
		t.Errorf("accepted %v, cap is 10Wh", in)
	}
}

func TestCycleAccounting(t *testing.T) {
	b, _ := New(ServerBattery())
	if b.EquivalentCycles() != 0 {
		t.Error("fresh battery should have zero wear")
	}
	// One full trip to the DoD floor is one equivalent cycle.
	b.Discharge(155, time.Hour)
	if got := b.EquivalentCycles(); !units.NearlyEqual(got, 1, 1e-6) {
		t.Errorf("one floor trip = %v cycles, want 1", got)
	}
	b.Reset()
	if b.SoC() != 1 {
		t.Error("Reset should restore full charge")
	}
	b.Discharge(155, time.Hour)
	if got := b.EquivalentCycles(); !units.NearlyEqual(got, 2, 1e-6) {
		t.Errorf("two floor trips = %v cycles", got)
	}
}

func TestUsableEnergy(t *testing.T) {
	b, _ := New(ServerBattery())
	// 40% of 120 Wh = 48 Wh usable when full.
	if got := b.UsableEnergy(); !units.NearlyEqual(float64(got), 48, 1e-9) {
		t.Errorf("usable = %v, want 48Wh", got)
	}
	b.Discharge(155, time.Hour)
	if got := b.UsableEnergy(); got > 1e-9 {
		t.Errorf("usable at floor = %v", got)
	}
}

func durNear(a, b, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// Property: SoC is monotonically non-increasing under discharge and
// never drops below the DoD floor.
func TestDischargeInvariantProperty(t *testing.T) {
	f := func(powers []uint16) bool {
		b, err := New(ServerBattery())
		if err != nil {
			return false
		}
		floor := 1 - b.Config().MaxDoD
		prev := b.SoC()
		for _, pw := range powers {
			p := units.Watt(float64(pw%300) + 1)
			b.Discharge(p, time.Minute)
			s := b.SoC()
			if s > prev+1e-12 || s < floor-1e-12 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: higher draws never sustain longer (RemainingTime is
// non-increasing in power).
func TestRemainingTimeMonotoneProperty(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		b, err := New(ServerBattery())
		if err != nil {
			return false
		}
		p1 := units.Watt(float64(aRaw%500) + 1)
		p2 := units.Watt(float64(bRaw%500) + 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return b.RemainingTime(p1) >= b.RemainingTime(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: charging never pushes SoC above 1 and never returns more
// stored energy than input.
func TestChargeInvariantProperty(t *testing.T) {
	f := func(dis uint8, chg []uint16) bool {
		b, err := New(ServerBattery())
		if err != nil {
			return false
		}
		b.Discharge(units.Watt(dis)+1, 10*time.Minute)
		for _, c := range chg {
			before := b.SoC()
			in := b.Charge(units.Watt(c%200), time.Minute)
			stored := (b.SoC() - before) * float64(b.Config().RatedEnergy())
			if b.SoC() > 1+1e-12 {
				return false
			}
			if stored > float64(in)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
