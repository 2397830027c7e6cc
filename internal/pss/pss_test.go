package pss

import (
	"testing"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/cluster"
	"greensprint/internal/units"
)

func newSelector(t *testing.T, g cluster.GreenConfig) *Selector {
	t.Helper()
	bank, err := g.NewBank()
	if err != nil {
		t.Fatal(err)
	}
	return New(bank)
}

const epoch = 5 * time.Minute

func TestCaseString(t *testing.T) {
	names := map[Case]string{
		CaseGreenOnly:        "green-only",
		CaseGreenPlusBattery: "green+battery",
		CaseBatteryOnly:      "battery-only",
		CaseGridFallback:     "grid-fallback",
		Case(9):              "Case(9)",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestPrediction(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	if s.PredictedSupply() != 0 {
		t.Error("unprimed prediction should be 0")
	}
	s.ObserveSupply(600)
	if got := s.PredictedSupply(); got != 600 {
		t.Errorf("primed prediction = %v", got)
	}
	s.ObserveSupply(300)
	// 0.3*600 + 0.7*300 = 390.
	if got := s.PredictedSupply(); !units.NearlyEqual(float64(got), 390, 1e-9) {
		t.Errorf("EWMA prediction = %v, want 390", got)
	}
}

func TestAvailablePower(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	s.ObserveSupply(400)
	avail := s.AvailablePower(10 * time.Minute)
	batt := s.BatterySustainable(10 * time.Minute)
	if got := float64(avail); !units.NearlyEqual(got, 400+float64(batt), 1e-9) {
		t.Errorf("available = %v, want green 400 + battery %v", avail, batt)
	}
	// RE-Batt: 3 × 10 Ah sustains the 3-server max sprint (465 W)
	// for a 10-minute burst.
	if batt < 465 {
		t.Errorf("RE-Batt 10-minute sustainable = %v, want >= 465", batt)
	}
}

// TestClassifyCases classifies the paper's three supply cases and the
// no-battery fallback through Allocate, the rule both control loops
// run, each on a fresh bank.
func TestClassifyCases(t *testing.T) {
	cases := []struct {
		name          string
		g             cluster.GreenConfig
		demand, green units.Watt
		want          Case
		wantFrac      float64
	}{
		{"case 1: green covers everything", cluster.REBatt(), 400, 600, CaseGreenOnly, 1},
		{"case 2: battery covers the shortfall", cluster.REBatt(), 465, 300, CaseGreenPlusBattery, 1},
		{"case 3: battery alone", cluster.REBatt(), 465, 0, CaseBatteryOnly, 1},
		{"REOnly: no battery", cluster.REOnly(), 465, 0, CaseGridFallback, 0},
		{"REOnly: abundant green", cluster.REOnly(), 465, 600, CaseGreenOnly, 1},
	}
	for _, c := range cases {
		al := newSelector(t, c.g).Allocate(c.demand, c.green, epoch, 300)
		if al.Case != c.want || al.SprintFraction != c.wantFrac {
			t.Errorf("%s: %v at fraction %v, want %v at %v", c.name, al.Case, al.SprintFraction, c.want, c.wantFrac)
		}
	}
}

// TestAllocatePartialEpochSprint pins the partial-epoch rule (§III-A):
// a fresh RE-Batt bank cannot carry a 1200 W shortfall for the whole
// epoch, so the sprint runs green+battery until the bank reaches its
// floor, about 0.767 of the epoch, and the rest is grid-fed Normal
// mode.
func TestAllocatePartialEpochSprint(t *testing.T) {
	al := newSelector(t, cluster.REBatt()).Allocate(1500, 300, epoch, 300)
	if al.Case != CaseGreenPlusBattery || al.Sustained {
		t.Fatalf("allocation = %+v, want an unsustained green+battery sprint", al)
	}
	if !units.NearlyEqual(al.SprintFraction, 0.767, 1e-3) {
		t.Errorf("sprint fraction = %v, want about 0.767", al.SprintFraction)
	}
	if want := units.Watt(1200 * al.SprintFraction); al.Battery != want {
		t.Errorf("battery = %v, want the 1200 W shortfall over the sprint, %v", al.Battery, want)
	}
}

func TestAllocateGreenOnlyChargesSurplus(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	// Pre-drain so the battery can accept charge.
	s.Bank().Discharge(465, 3*time.Minute)
	socBefore := s.Bank().SoC()
	al := s.Allocate(300, 600, epoch, 300)
	if al.Case != CaseGreenOnly || !al.Sustained {
		t.Fatalf("allocation = %+v", al)
	}
	if al.Green != 300 || al.Battery != 0 || al.Grid != 0 {
		t.Errorf("sources = %+v", al)
	}
	if al.Charged <= 0 {
		t.Error("surplus should charge the battery")
	}
	if s.Bank().SoC() <= socBefore {
		t.Error("battery SoC should rise")
	}
	acct := s.Account()
	if acct.Green <= 0 || acct.GreenCharged <= 0 {
		t.Errorf("accounting = %+v", acct)
	}
	if got := al.Green + al.Battery + al.Grid; got != 300 {
		t.Errorf("total = %v", got)
	}
}

func TestAllocateBatterySupplement(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	al := s.Allocate(465, 300, epoch, 300)
	if al.Case != CaseGreenPlusBattery || !al.Sustained {
		t.Fatalf("allocation = %+v", al)
	}
	if al.Green != 300 || al.Battery != 165 {
		t.Errorf("split = %+v", al)
	}
	if s.Bank().SoC() >= 1 {
		t.Error("battery should have discharged")
	}
	if s.Account().Battery <= 0 {
		t.Error("battery energy should be accounted")
	}
}

func TestAllocateBatteryOnly(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	al := s.Allocate(465, 0, epoch, 300)
	if al.Case != CaseBatteryOnly || !al.Sustained {
		t.Fatalf("allocation = %+v", al)
	}
	if al.Green != 0 || al.Battery != 465 || al.Grid != 0 {
		t.Errorf("split = %+v", al)
	}
}

func TestAllocateGridFallback(t *testing.T) {
	s := newSelector(t, cluster.RESBatt())
	// Drain the small bank first.
	s.Bank().Discharge(465, time.Hour)
	al := s.Allocate(465, 0, epoch, 256)
	if al.Case != CaseGridFallback || al.Sustained {
		t.Fatalf("allocation = %+v", al)
	}
	if al.Grid != 256 {
		t.Errorf("grid = %v, want the Normal fallback", al.Grid)
	}
	// A green trickle offsets grid draw in fallback.
	al = s.Allocate(465, 100, epoch, 256)
	if al.Green != 100 || al.Grid != 156 {
		t.Errorf("fallback with trickle = %+v", al)
	}
}

func TestAllocateNegativeInputsClamp(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	al := s.Allocate(-5, -10, epoch, 100)
	if al.Green+al.Battery+al.Grid != 0 && al.Case != CaseGreenOnly {
		t.Errorf("negative inputs = %+v", al)
	}
}

func TestNeedsRechargeAndGridRecharge(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	if s.NeedsRecharge() {
		t.Error("full bank should not need recharge")
	}
	s.Bank().Discharge(465, time.Hour) // to the floor
	if !s.NeedsRecharge() {
		t.Error("drained bank should need recharge")
	}
	in := s.RechargeFromGrid(200, 30*time.Minute)
	if in <= 0 {
		t.Fatal("grid recharge accepted nothing")
	}
	if s.Account().GridCharged != in {
		t.Errorf("accounting = %+v", s.Account())
	}
	// REOnly never needs recharge (no batteries).
	ro := newSelector(t, cluster.REOnly())
	if ro.NeedsRecharge() {
		t.Error("bankless selector cannot need recharge")
	}
}

func TestRechargeFromGreen(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	s.Bank().Discharge(465, 5*time.Minute)
	in := s.RechargeFromGreen(300, 10*time.Minute)
	if in <= 0 {
		t.Fatal("green recharge accepted nothing")
	}
	if s.Account().GreenCharged != in {
		t.Errorf("accounting = %+v", s.Account())
	}
}

func TestPeukertRecalcAcrossEpochs(t *testing.T) {
	// The sustainable power must shrink after each discharging epoch
	// (the paper's per-epoch remaining-time recalculation).
	s := newSelector(t, cluster.REBatt())
	prev := s.BatterySustainable(10 * time.Minute)
	for i := 0; i < 2; i++ {
		al := s.Allocate(465, 0, epoch, 300)
		if al.Battery == 0 {
			t.Fatalf("epoch %d: expected battery discharge, got %+v", i, al)
		}
		cur := s.BatterySustainable(10 * time.Minute)
		if cur >= prev {
			t.Fatalf("sustainable power did not shrink: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestBatteryBankExhaustionEndsInFallback(t *testing.T) {
	s := newSelector(t, cluster.REBatt())
	fallbacks := 0
	// At 465 W the 3×10 Ah bank lasts ~11 minutes; after that every
	// epoch must be grid fallback.
	for i := 0; i < 12; i++ {
		al := s.Allocate(465, 0, epoch, 300)
		if al.Case == CaseGridFallback {
			fallbacks++
		}
	}
	if fallbacks < 8 {
		t.Errorf("fallbacks = %d, want most epochs after exhaustion", fallbacks)
	}
	// The bank should be effectively spent: what remains cannot carry
	// even one more full epoch at the sprint draw, and is a small
	// fraction of the initial 144 Wh of usable energy.
	if rem := s.Bank().UsableEnergy(); float64(rem) > 0.15*144 {
		t.Errorf("usable energy left = %v, want < 15%% of initial", rem)
	}
}

var _ = battery.ErrEmpty // keep the battery import for documentation parity
