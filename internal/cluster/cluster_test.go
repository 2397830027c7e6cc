package cluster

import (
	"testing"
	"time"

	"greensprint/internal/units"
)

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	want := []struct {
		name    string
		servers int
		ah      units.AmpHour
		peak    float64
	}{
		{"RE-Batt", 3, 10, 635.25},
		{"REOnly", 3, 0, 635.25},
		{"RE-SBatt", 3, 3.2, 635.25},
		{"SRE-SBatt", 2, 3.2, 423.5},
	}
	for i, w := range want {
		g := rows[i]
		if g.Name != w.name || g.GreenServers != w.servers || g.BatteryAh != w.ah {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
		}
		if got := float64(g.PeakGreen()); !units.NearlyEqual(got, w.peak, 1e-9) {
			t.Errorf("%s peak green = %v, want %v", g.Name, got, w.peak)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("RE-SBatt")
	if err != nil || g.BatteryAh != 3.2 {
		t.Errorf("ByName: %+v %v", g, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []GreenConfig{
		{Name: "a", GreenServers: -1},
		{Name: "b", Panels: -1},
		{Name: "c", BatteryAh: -1},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("%s should fail validation", g.Name)
		}
	}
}

func TestNewBank(t *testing.T) {
	bank, err := REBatt().NewBank()
	if err != nil {
		t.Fatal(err)
	}
	if bank.Size() != 3 {
		t.Errorf("RE-Batt bank size = %d", bank.Size())
	}
	if got := bank.Unit(0).Config().Capacity; got != 10 {
		t.Errorf("capacity = %v", got)
	}
	// REOnly has no batteries.
	bank, err = REOnly().NewBank()
	if err != nil {
		t.Fatal(err)
	}
	if bank.Size() != 0 {
		t.Errorf("REOnly bank size = %d", bank.Size())
	}
	// Small battery config.
	bank, err = SRESBatt().NewBank()
	if err != nil {
		t.Fatal(err)
	}
	if bank.Size() != 2 || bank.Unit(0).Config().Capacity != 3.2 {
		t.Errorf("SRE-SBatt bank: size=%d", bank.Size())
	}
}

func TestNewCluster(t *testing.T) {
	c, err := New(REBatt())
	if err != nil {
		t.Fatal(err)
	}
	if c.Servers != 10 {
		t.Errorf("servers = %d", c.Servers)
	}
	if c.GridBudget != 1000 {
		t.Errorf("grid budget = %v", c.GridBudget)
	}
	if c.GridServers() != 7 {
		t.Errorf("grid servers = %d", c.GridServers())
	}
	// §IV: grid supports 7 servers sprinting sub-optimally at
	// ~143 W each.
	per := float64(c.GridHeadroomPerGridServer())
	if per < 140 || per > 145 {
		t.Errorf("per-grid-server headroom = %v, want ~142.9", per)
	}
	if _, err := New(GreenConfig{Name: "bad", GreenServers: -1}); err == nil {
		t.Error("invalid green config should fail")
	}
	if _, err := New(GreenConfig{Name: "huge", GreenServers: 11}); err == nil {
		t.Error("oversubscribed green servers should fail")
	}
}

func TestGridHeadroomAllGreen(t *testing.T) {
	c := &Cluster{Servers: 3, GridBudget: 300, Green: GreenConfig{GreenServers: 3}}
	if got := c.GridHeadroomPerGridServer(); got != 0 {
		t.Errorf("all-green headroom = %v", got)
	}
}

func TestBreakerWithinRating(t *testing.T) {
	b := NewBreaker(1000)
	for i := 0; i < 1000; i++ {
		if b.Step(1000, time.Second) {
			t.Fatal("breaker tripped at rated load")
		}
	}
	if b.Stress() != 0 {
		t.Errorf("stress at rating = %v", b.Stress())
	}
}

func TestBreakerMagneticTrip(t *testing.T) {
	b := NewBreaker(1000)
	if !b.Step(1300, time.Second) {
		t.Error("draw above the overload ceiling should trip immediately")
	}
	if !b.Tripped() {
		t.Error("Tripped should report true")
	}
	// Stays tripped.
	if !b.Step(0, time.Hour) {
		t.Error("breaker should remain open")
	}
	b.Reset()
	if b.Tripped() || b.Stress() != 0 {
		t.Error("Reset should close the breaker")
	}
}

func TestBreakerThermalTrip(t *testing.T) {
	b := NewBreaker(1000)
	// At the full overload ceiling (1250 W), trips after TripAfter.
	elapsed := time.Duration(0)
	for !b.Step(1250, 10*time.Second) {
		elapsed += 10 * time.Second
		if elapsed > 10*time.Minute {
			t.Fatal("never tripped")
		}
	}
	if elapsed < 90*time.Second || elapsed > 3*time.Minute {
		t.Errorf("tripped after %v, want ~2m", elapsed)
	}
}

func TestBreakerPartialOverloadSlower(t *testing.T) {
	fast := NewBreaker(1000)
	slow := NewBreaker(1000)
	for i := 0; i < 6; i++ {
		fast.Step(1250, 10*time.Second)
		slow.Step(1100, 10*time.Second)
	}
	if slow.Stress() >= fast.Stress() {
		t.Errorf("milder overload should stress less: %v vs %v", slow.Stress(), fast.Stress())
	}
}

func TestBreakerCoolsDown(t *testing.T) {
	b := NewBreaker(1000)
	b.Step(1250, time.Minute) // half the trip budget
	s := b.Stress()
	if s <= 0 {
		t.Fatal("no stress accumulated")
	}
	b.Step(500, 30*time.Second)
	if b.Stress() >= s {
		t.Error("stress should decay below rating")
	}
	b.Step(0, time.Hour)
	if b.Stress() != 0 {
		t.Errorf("stress should floor at 0, got %v", b.Stress())
	}
}

func TestBreakerDegenerate(t *testing.T) {
	b := &Breaker{}
	if b.Step(1e9, time.Hour) {
		t.Error("unrated breaker never trips")
	}
}

func TestEnergyAccount(t *testing.T) {
	a := EnergyAccount{Grid: 100, Green: 50, Battery: 25}
	if a.Total() != 175 {
		t.Errorf("total = %v", a.Total())
	}
	if got := a.GreenFraction(); !units.NearlyEqual(got, 50.0/175, 1e-12) {
		t.Errorf("green fraction = %v", got)
	}
	var zero EnergyAccount
	if zero.GreenFraction() != 0 {
		t.Error("empty account green fraction = 0")
	}
}
