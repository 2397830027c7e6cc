package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWattEnergy(t *testing.T) {
	tests := []struct {
		p    Watt
		d    time.Duration
		want WattHour
	}{
		{100, time.Hour, 100},
		{100, 30 * time.Minute, 50},
		{155, 10 * time.Minute, 155.0 / 6},
		{0, time.Hour, 0},
		{76, 24 * time.Hour, 1824},
	}
	for _, tt := range tests {
		if got := tt.p.Energy(tt.d); !NearlyEqual(float64(got), float64(tt.want), 1e-12) {
			t.Errorf("%v over %v = %v, want %v", tt.p, tt.d, got, tt.want)
		}
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	e := WattHour(48)
	if got := e.Power(30 * time.Minute); !NearlyEqual(float64(got), 96, 1e-12) {
		t.Errorf("48Wh over 30min = %v, want 96W", got)
	}
	if got := e.Power(0); got != 0 {
		t.Errorf("zero duration should give 0 power, got %v", got)
	}
	if got := e.Power(-time.Hour); got != 0 {
		t.Errorf("negative duration should give 0 power, got %v", got)
	}
}

func TestCurrentAndCharge(t *testing.T) {
	// The paper's battery is 12 V VRLA; max sprint power 155 W.
	i := Watt(155).Current(12)
	if !NearlyEqual(float64(i), 155.0/12, 1e-12) {
		t.Errorf("155W @ 12V = %v A, want %v", i, 155.0/12)
	}
	if got := Watt(155).Current(0); got != 0 {
		t.Errorf("zero voltage current = %v, want 0", got)
	}
	// 10 Ah at 12 V is 120 Wh.
	if got := AmpHour(10).Energy(12); !NearlyEqual(float64(got), 120, 1e-12) {
		t.Errorf("10Ah@12V = %v, want 120Wh", got)
	}
	if got := WattHour(120).Charge(12); !NearlyEqual(float64(got), 10, 1e-12) {
		t.Errorf("120Wh@12V = %v, want 10Ah", got)
	}
	if got := WattHour(120).Charge(0); got != 0 {
		t.Errorf("zero voltage charge = %v, want 0", got)
	}
	if got := Amp(10).Power(12); !NearlyEqual(float64(got), 120, 1e-12) {
		t.Errorf("10A@12V = %v, want 120W", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Watt(500).Clamp(0, 100); got != 100 {
		t.Errorf("clamp high: got %v", got)
	}
	if got := Watt(-5).Clamp(0, 100); got != 0 {
		t.Errorf("clamp low: got %v", got)
	}
	if got := Watt(42).Clamp(0, 100); got != 42 {
		t.Errorf("clamp within: got %v", got)
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Watt(76).String(), "76W"},
		{Watt(211.75).String(), "211.75W"},
		{WattHour(48).String(), "48Wh"},
		{AmpHour(3.2).String(), "3.2Ah"},
		{MHz(2000).String(), "2GHz"},
		{MHz(1200).String(), "1.2GHz"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q want %q", tt.got, tt.want)
		}
	}
}

func TestNearlyEqual(t *testing.T) {
	if !NearlyEqual(1.0, 1.0, 0) {
		t.Error("identical values must compare equal at zero tolerance")
	}
	if !NearlyEqual(100, 100.0001, 1e-5) {
		t.Error("within relative tolerance")
	}
	if NearlyEqual(100, 101, 1e-5) {
		t.Error("outside tolerance should be unequal")
	}
	if !NearlyEqual(0, 1e-9, 1e-8) {
		t.Error("absolute floor near zero")
	}
}

// Property: energy/power round-trips are self-consistent for positive
// durations.
func TestEnergyRoundTripProperty(t *testing.T) {
	f := func(p float64, minutes uint16) bool {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return true
		}
		p = math.Mod(math.Abs(p), 1e6)
		d := time.Duration(int(minutes)%1440+1) * time.Minute
		e := Watt(p).Energy(d)
		back := e.Power(d)
		return NearlyEqual(float64(back), p, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: charge/energy conversion at fixed voltage round-trips.
func TestChargeRoundTripProperty(t *testing.T) {
	f := func(c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		c = math.Mod(math.Abs(c), 1e4)
		const v = Volt(12)
		back := AmpHour(c).Energy(v).Charge(v)
		return NearlyEqual(float64(back), c, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp always lands inside the interval.
func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := Watt(math.Min(a, b)), Watt(math.Max(a, b))
		got := Watt(v).Clamp(lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
