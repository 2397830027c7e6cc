package main

// The upstream power hierarchy of Figure 2: the utility substation
// feeding the PDU through an automatic transfer switch (ATS), with a
// diesel generator (DG) as the backup source, and the on-site green
// bus attached at the PDU level. GreenSprint's controller only sees
// the PDU-level supplies, but the evaluation's premise — that the grid
// side is capped and occasionally unavailable — lives here: the ATS
// switches the dirty feed between utility and diesel with a start-up
// gap that the distributed batteries ride through (the classic role of
// server-level UPS the paper builds on).

import (
	"fmt"
	"time"

	"greensprint/internal/units"
)

// Source identifies the dirty-side feed selected by the ATS.
type Source int

const (
	// Utility is the normal substation feed.
	Utility Source = iota
	// Diesel is the backup generator.
	Diesel
	// None means the ATS has no live source (diesel still starting).
	None
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case Utility:
		return "utility"
	case Diesel:
		return "diesel"
	case None:
		return "none"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// ATSConfig describes the transfer switch and its diesel backup.
type ATSConfig struct {
	// UtilityCapacity is the substation feed available to this PDU.
	UtilityCapacity units.Watt
	// DieselCapacity is the generator's rating; generators are
	// typically sized for the critical (Normal-mode) load only.
	DieselCapacity units.Watt
	// DieselStart is the generator's start-up delay; the feed is
	// dead for this long after a utility failure (batteries bridge
	// it).
	DieselStart time.Duration
}

// DefaultATS sizes the hierarchy for the paper's 10-server rack: a
// 1000 W utility budget and a diesel generator that carries exactly
// the Normal-mode load, starting in 10 seconds.
func DefaultATS() ATSConfig {
	return ATSConfig{
		UtilityCapacity: 1000,
		DieselCapacity:  1000,
		DieselStart:     10 * time.Second,
	}
}

// Validate reports configuration errors.
func (c ATSConfig) Validate() error {
	switch {
	case c.UtilityCapacity <= 0:
		return fmt.Errorf("power: non-positive utility capacity %v", c.UtilityCapacity)
	case c.DieselCapacity < 0:
		return fmt.Errorf("power: negative diesel capacity %v", c.DieselCapacity)
	case c.DieselStart < 0:
		return fmt.Errorf("power: negative diesel start delay %v", c.DieselStart)
	}
	return nil
}

// ATS is the stateful transfer switch.
type ATS struct {
	cfg ATSConfig
	// utilityUp tracks the substation's state.
	utilityUp bool
	// dieselRunning and dieselReadyIn track the generator.
	dieselRunning bool
	dieselReadyIn time.Duration
}

// NewATS returns a switch on a healthy utility feed.
func NewATS(cfg ATSConfig) (*ATS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ATS{cfg: cfg, utilityUp: true}, nil
}

// Source returns the currently selected feed.
func (a *ATS) Source() Source {
	switch {
	case a.utilityUp:
		return Utility
	case a.dieselRunning:
		return Diesel
	default:
		return None
	}
}

// Capacity returns the dirty-side power available right now.
func (a *ATS) Capacity() units.Watt {
	switch a.Source() {
	case Utility:
		return a.cfg.UtilityCapacity
	case Diesel:
		return a.cfg.DieselCapacity
	default:
		return 0
	}
}

// FailUtility simulates a substation outage: the ATS drops the feed
// and cranks the diesel generator.
func (a *ATS) FailUtility() {
	if !a.utilityUp {
		return
	}
	a.utilityUp = false
	if !a.dieselRunning {
		a.dieselReadyIn = a.cfg.DieselStart
	}
}

// RestoreUtility returns the substation feed; the ATS transfers back
// and the generator spins down.
func (a *ATS) RestoreUtility() {
	a.utilityUp = true
	a.dieselRunning = false
	a.dieselReadyIn = 0
}

// Step advances time: a cranking generator comes online once its
// start-up delay has elapsed.
func (a *ATS) Step(dt time.Duration) {
	if a.utilityUp || a.dieselRunning {
		return
	}
	a.dieselReadyIn -= dt
	if a.dieselReadyIn <= 0 {
		a.dieselRunning = true
		a.dieselReadyIn = 0
	}
}

// Feed is the PDU's view of its supplies during one interval: the
// dirty side (utility or diesel through the ATS) plus the green bus.
type Feed struct {
	Source Source
	// Dirty is the grid-side power available.
	Dirty units.Watt
	// Green is the renewable bus power available.
	Green units.Watt
}

// Total returns all power available to the PDU.
func (f Feed) Total() units.Watt { return f.Dirty + f.Green }

// PDU couples the ATS with the green bus into the Figure 2 hierarchy.
type PDU struct {
	ATS *ATS
}

// NewPDU builds the hierarchy.
func NewPDU(cfg ATSConfig) (*PDU, error) {
	ats, err := NewATS(cfg)
	if err != nil {
		return nil, err
	}
	return &PDU{ATS: ats}, nil
}

// Feed advances the hierarchy by dt and reports the available
// supplies, given the green bus production over the interval.
func (p *PDU) Feed(green units.Watt, dt time.Duration) Feed {
	p.ATS.Step(dt)
	if green < 0 {
		green = 0
	}
	return Feed{Source: p.ATS.Source(), Dirty: p.ATS.Capacity(), Green: green}
}
