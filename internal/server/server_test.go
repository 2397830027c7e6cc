package server

import (
	"fmt"
	"testing"
	"testing/quick"

	"greensprint/internal/units"
)

func TestFrequencies(t *testing.T) {
	fs := Frequencies()
	if len(fs) != 9 {
		t.Fatalf("want 9 P-states, got %d", len(fs))
	}
	if fs[0] != 1200 || fs[8] != 2000 {
		t.Errorf("range = %v..%v", fs[0], fs[8])
	}
	for i := 1; i < len(fs); i++ {
		if fs[i]-fs[i-1] != 100 {
			t.Errorf("step %d = %v", i, fs[i]-fs[i-1])
		}
	}
}

func TestConfigs(t *testing.T) {
	cs := Configs()
	if len(cs) != 7*9 {
		t.Fatalf("want 63 configs, got %d", len(cs))
	}
	if cs[0] != Normal() {
		t.Errorf("first config = %v, want Normal", cs[0])
	}
	if cs[len(cs)-1] != MaxSprint() {
		t.Errorf("last config = %v, want MaxSprint", cs[len(cs)-1])
	}
	seen := map[Config]bool{}
	for _, c := range cs {
		if !c.Valid() {
			t.Errorf("enumerated invalid config %v", c)
		}
		if seen[c] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c] = true
	}
}

func TestConfigValid(t *testing.T) {
	valid := []Config{Normal(), MaxSprint(), {8, 1500}}
	for _, c := range valid {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
	invalid := []Config{
		{5, 1200},  // too few cores
		{13, 1200}, // too many cores
		{8, 1100},  // below min freq
		{8, 2100},  // above max freq
		{8, 1250},  // off-grid frequency
	}
	for _, c := range invalid {
		if c.Valid() {
			t.Errorf("%v should be invalid", c)
		}
	}
}

func TestIsSprinting(t *testing.T) {
	if Normal().IsSprinting() {
		t.Error("Normal is not sprinting")
	}
	for _, c := range []Config{{7, 1200}, {6, 1300}, MaxSprint()} {
		if !c.IsSprinting() {
			t.Errorf("%v should be sprinting", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	if got := (Config{8, 1500}).String(); got != "8c@1.5GHz" {
		t.Errorf("String = %q", got)
	}
	// The knob space reads the name table; anything outside it is
	// formatted on demand, in the same form.
	for _, c := range append(Configs(), Config{4, 1500}, Config{12, 2500}, Config{6, 1250}) {
		if got, want := c.String(), fmt.Sprintf("%dc@%s", c.Cores, c.Freq); got != want {
			t.Errorf("%#v.String() = %q, want %q", c, got, want)
		}
	}
}

func TestPowerModelCalibration(t *testing.T) {
	// SPECjbb: peak 155 W at max sprint.
	m := NewPowerModel(155)
	if got := m.PeakPower(); !units.NearlyEqual(float64(got), 155, 1e-9) {
		t.Errorf("peak = %v, want 155", got)
	}
	// Idle at zero utilization regardless of config.
	if got := m.Power(MaxSprint(), 0); got != IdlePower {
		t.Errorf("idle = %v", got)
	}
	// Normal-mode full-load power should be at or below the 100 W
	// per-server grid budget, but well above idle.
	p := float64(m.Power(Normal(), 1))
	if p < 80 || p > 105 {
		t.Errorf("Normal power = %v, want ~85-100", p)
	}
	// Utilization clamping.
	if m.Power(MaxSprint(), 2) != m.Power(MaxSprint(), 1) {
		t.Error("util > 1 should clamp")
	}
	if m.Power(MaxSprint(), -1) != m.Power(MaxSprint(), 0) {
		t.Error("util < 0 should clamp")
	}
}

func TestPowerMonotonicity(t *testing.T) {
	m := NewPowerModel(155)
	// More cores cost more power at the same frequency.
	for _, f := range Frequencies() {
		for n := MinCores; n < MaxCores; n++ {
			a := m.Power(Config{n, f}, 1)
			b := m.Power(Config{n + 1, f}, 1)
			if b <= a {
				t.Fatalf("power not increasing in cores at %v: %v vs %v", f, a, b)
			}
		}
	}
	// Higher frequency costs more power at the same core count.
	fs := Frequencies()
	for n := MinCores; n <= MaxCores; n++ {
		for i := 1; i < len(fs); i++ {
			a := m.Power(Config{n, fs[i-1]}, 1)
			b := m.Power(Config{n, fs[i]}, 1)
			if b <= a {
				t.Fatalf("power not increasing in freq at %dc: %v vs %v", n, a, b)
			}
		}
	}
}

func TestFrequencyScalingSuperlinear(t *testing.T) {
	// The cubic voltage share makes frequency scaling cost more
	// than linear: doubling frequency should more than double the
	// per-core dynamic power.
	m := NewPowerModel(155)
	low := float64(m.Power(Config{12, 1200}, 1) - IdlePower)
	high := float64(m.Power(Config{12, 2000}, 1) - IdlePower)
	linear := low * 2000 / 1200
	if high <= linear {
		t.Errorf("dynamic power at 2.0GHz (%v) should exceed linear scaling (%v)", high, linear)
	}
}

// Property: power is always within [Idle, PeakPower] for valid configs
// and any utilization.
func TestPowerBoundedProperty(t *testing.T) {
	m := NewPowerModel(156)
	f := func(nRaw, fRaw uint8, uRaw uint16) bool {
		c := Config{
			Cores: MinCores + int(nRaw)%(MaxCores-MinCores+1),
			Freq:  units.FreqMin + units.MHz(int(fRaw)%9)*units.FreqStep,
		}
		u := float64(uRaw) / 65535
		p := m.Power(c, u)
		floor := m.Idle - units.Watt(float64(MaxCores-MinCores)*float64(m.CoreSleepSave))
		return p >= floor-1e-9 && p <= m.PeakPower()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
