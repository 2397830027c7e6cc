package main

import (
	"testing"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/units"
)

func TestValidate(t *testing.T) {
	if err := DefaultATS().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ATSConfig{
		{UtilityCapacity: 0, DieselCapacity: 100, DieselStart: time.Second},
		{UtilityCapacity: 100, DieselCapacity: -1, DieselStart: time.Second},
		{UtilityCapacity: 100, DieselCapacity: 100, DieselStart: -time.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
		if _, err := NewATS(c); err == nil {
			t.Errorf("case %d: NewATS should reject", i)
		}
	}
}

func TestSourceString(t *testing.T) {
	if Utility.String() != "utility" || Diesel.String() != "diesel" || None.String() != "none" {
		t.Error("names")
	}
	if Source(9).String() != "Source(9)" {
		t.Error("unknown formatting")
	}
}

func TestHealthyFeed(t *testing.T) {
	a, err := NewATS(DefaultATS())
	if err != nil {
		t.Fatal(err)
	}
	if a.Source() != Utility || a.Capacity() != 1000 {
		t.Errorf("healthy: %v %v", a.Source(), a.Capacity())
	}
	a.Step(time.Hour)
	if a.Source() != Utility {
		t.Error("step should not change a healthy feed")
	}
}

func TestUtilityFailureTransfersToDiesel(t *testing.T) {
	a, _ := NewATS(DefaultATS())
	a.FailUtility()
	// The feed is dead until the generator starts.
	if a.Source() != None || a.Capacity() != 0 {
		t.Errorf("during crank: %v %v", a.Source(), a.Capacity())
	}
	a.Step(5 * time.Second)
	if a.Source() != None {
		t.Error("generator ready too early")
	}
	a.Step(5 * time.Second)
	if a.Source() != Diesel || a.Capacity() != 1000 {
		t.Errorf("after crank: %v %v", a.Source(), a.Capacity())
	}
	// Repeated failure signaling is idempotent.
	a.FailUtility()
	if a.Source() != Diesel {
		t.Error("repeated FailUtility should not reset the generator")
	}
	a.RestoreUtility()
	if a.Source() != Utility {
		t.Error("restore should transfer back")
	}
}

// TestBatteriesBridgeDieselStart verifies the classic UPS role the
// paper's distributed batteries inherit: the 10-second generator crank
// is a trivial draw for even the small 3.2 Ah units.
func TestBatteriesBridgeDieselStart(t *testing.T) {
	cfg := DefaultATS()
	b, err := battery.New(battery.SmallServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	// One server at Normal-mode power for the crank duration.
	if sustain := b.RemainingTime(100); sustain < cfg.DieselStart {
		t.Errorf("battery bridges only %v of the %v crank", sustain, cfg.DieselStart)
	}
	took, err := b.Discharge(100, cfg.DieselStart)
	if err != nil || took != cfg.DieselStart {
		t.Errorf("bridge discharge: %v %v", took, err)
	}
	if b.DoD() > 0.02 {
		t.Errorf("bridging cost %.3f DoD, should be negligible", b.DoD())
	}
}

func TestPDUFeed(t *testing.T) {
	p, err := NewPDU(DefaultATS())
	if err != nil {
		t.Fatal(err)
	}
	f := p.Feed(635, time.Minute)
	if f.Source != Utility || f.Dirty != 1000 || f.Green != 635 {
		t.Errorf("feed = %+v", f)
	}
	if f.Total() != 1635 {
		t.Errorf("total = %v", f.Total())
	}
	// Outage: green keeps flowing while the dirty side cranks.
	p.ATS.FailUtility()
	f = p.Feed(635, time.Second)
	if f.Source != None || f.Dirty != 0 || f.Green != 635 {
		t.Errorf("outage feed = %+v", f)
	}
	f = p.Feed(-5, time.Minute) // long step finishes the crank; green clamps
	if f.Source != Diesel || f.Green != 0 {
		t.Errorf("diesel feed = %+v", f)
	}
	if _, err := NewPDU(ATSConfig{}); err == nil {
		t.Error("invalid config should fail")
	}
}

// TestSprintingSurvivesUtilityOutage ties the hierarchy to the green
// bus premise: with the dirty side on diesel (sized for Normal mode
// only), the green servers can still sprint because their power comes
// from the PDU-level renewable bus, not the ATS.
func TestSprintingSurvivesUtilityOutage(t *testing.T) {
	p, _ := NewPDU(DefaultATS())
	p.ATS.FailUtility()
	p.ATS.Step(time.Minute)
	f := p.Feed(635, time.Minute)
	// Diesel covers exactly the 10-server Normal load...
	if f.Dirty != 1000 {
		t.Fatalf("diesel = %v", f.Dirty)
	}
	// ...and the green bus still carries the 3-server max sprint.
	sprintDemand := units.Watt(3 * 155)
	if f.Green < sprintDemand {
		t.Errorf("green %v cannot carry the sprint %v", f.Green, sprintDemand)
	}
}
