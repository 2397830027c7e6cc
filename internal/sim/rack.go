package sim

import (
	"errors"
	"fmt"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/pmk"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/units"
)

// Rack is the modelled state of the green servers one control loop
// manages — the paper's rack, or a generated fleet: the PSS selector
// over the battery bank, the knob herd, the optional PDU breaker, the
// optional chaos injector and the alive census derived from it. Engine
// and core.Controller each drive one, so both loops share one fault
// path — applying chaos transitions, rendering chaos events, actuating
// the live servers, the outage-epoch recharge and checkpointing the
// components — while each keeps its own clock, decision epoch, events
// and locking. A Rack is not safe for concurrent use.
type Rack struct {
	// Selector is the PSS over the rack's battery bank.
	Selector *pss.Selector
	// Knobs is the rack's knob herd.
	Knobs *pmk.ClassFleet
	// Breaker is the PDU breaker model; nil when the rack has none.
	Breaker *cluster.Breaker
	// Injector replays the chaos timeline; nil for fault-free runs,
	// whose every code path is then bit-identical to a rack without
	// chaos.
	Injector *chaos.Injector

	servers    int
	counts     []int
	classOf    func(int) int
	alive      int   //greensprint:allow(statecov) derived: Restore recounts it from the restored injector's ref-counts (all servers when chaos is off)
	classAlive []int //greensprint:allow(statecov) derived: Restore recounts the per-class census from the restored injector's ref-counts
}

// NewRack assembles a rack of counts[c] servers of class c — classOf
// maps a server index to its class and must be total over the rack —
// with the PSS over bank. breaker and inj may be nil. A chaos
// schedule's fault targets were drawn for a concrete rack, so inj must
// be resolved for this rack's server and battery-unit census.
func NewRack(counts []int, classOf func(int) int, bank battery.Store, breaker *cluster.Breaker, inj *chaos.Injector) (*Rack, error) {
	n := 0
	for _, c := range counts {
		n += c
	}
	if inj != nil {
		s := inj.Schedule()
		if s.Servers != n {
			return nil, fmt.Errorf("chaos schedule resolved for %d servers, rack has %d", s.Servers, n)
		}
		if s.Units != bank.Size() {
			return nil, fmt.Errorf("chaos schedule resolved for %d battery units, bank has %d", s.Units, bank.Size())
		}
	}
	return &Rack{
		Selector:   pss.New(bank),
		Knobs:      pmk.NewClassFleet(counts, classOf),
		Breaker:    breaker,
		Injector:   inj,
		servers:    n,
		counts:     counts,
		classOf:    classOf,
		alive:      n,
		classAlive: append([]int(nil), counts...),
	}, nil
}

// PDUBreaker models the breaker on the PDU feed of green's rack, rated
// at its grid budget.
func PDUBreaker(green cluster.GreenConfig) (*cluster.Breaker, error) {
	cl, err := cluster.New(green)
	if err != nil {
		return nil, err
	}
	return cluster.NewBreaker(cl.GridBudget), nil
}

// Alive returns how many servers are up: all of them without chaos.
func (r *Rack) Alive() int { return r.alive }

// ClassAlive returns how many servers of class c are up.
func (r *Rack) ClassAlive(c int) int { return r.classAlive[c] }

// ApplyChaos advances the injector to epoch index, applies each due
// transition to the affected component and returns the transitions for
// the caller's event stream. Crashes force their server to Normal —
// which detaches it from its herd, so Actuate skips it until it
// recovers — battery faults degrade their unit, and breaker trips
// force the breaker open (a rack without a breaker model records the
// trip in the stream only). PSSStuck and SolarDropout act purely
// through the injector's ref-counts; ZoneOutage is a marker whose
// cascade constituents carry the component effects. The aggregate
// state — alive census, stuck switch — is recounted from the
// ref-counts, so overlapping faults on one component compose instead of
// corrupting each other. It must only be called on a rack with an
// injector.
func (r *Rack) ApplyChaos(index int) ([]chaos.Action, error) {
	actions := r.Injector.Advance(index)
	for _, a := range actions {
		f := a.Fault
		switch f.Mode {
		case chaos.ServerCrash:
			if !a.Recovered {
				// The crashed server drops its sprint; when it restarts it
				// boots into Normal mode, which its knob already records.
				if err := r.Knobs.Apply(f.Target, server.Normal()); err != nil {
					return nil, fmt.Errorf("chaos: %w", err)
				}
			}
		case chaos.BatteryDegrade:
			if err := r.Selector.Bank().DegradeUnit(f.Target, f.Factor, f.Resist); err != nil {
				return nil, fmt.Errorf("chaos: %w", err)
			}
		case chaos.BreakerTrip:
			if r.Breaker != nil {
				if a.Recovered {
					r.Breaker.Reset() // technician reclose
				} else {
					r.Breaker.ForceTrip()
				}
			}
		}
	}
	if len(actions) > 0 {
		r.recount()
	}
	return actions, nil
}

// recount rebuilds the alive census and the stuck switch from the
// injector's ref-counts. It runs only on transition epochs and after a
// restore, so its O(servers) scan never rides the steady-state path.
func (r *Rack) recount() {
	r.alive = r.Injector.AliveServers()
	r.Selector.SetStuck(r.Injector.Stuck())
	copy(r.classAlive, r.counts)
	for s := 0; s < r.servers; s++ {
		if r.Injector.ServerDown(s) {
			r.classAlive[r.classOf(s)]--
		}
	}
}

// ChaosEvent renders one fault or recovery transition for the event
// stream, stamped with the epoch index it strikes in and the caller's
// clock reading at (empty for loops on the wall clock).
func (r *Rack) ChaosEvent(a chaos.Action, index int, at string, epoch time.Duration, strategy string) obs.Event {
	kind := "fault"
	if a.Recovered {
		kind = "recover"
	}
	return obs.Event{
		Epoch:        index,
		Time:         at,
		EpochSeconds: epoch.Seconds(),
		Strategy:     strategy,
		Servers:      r.servers,
		Chaos:        kind,
		ChaosMode:    a.Fault.Mode.String(),
		ChaosTarget:  a.Fault.Target,
		ChaosDetail:  a.Fault.String(),
	}
}

// Actuate applies c to the running servers: all of them on a
// fault-free rack, only the alive ones under chaos (a powered-off
// server has nothing to actuate, and phantom transitions would corrupt
// the actuation accounting). It fails only for an invalid config, which
// Engine never passes: its settings come from the profiling table or
// are Normal.
func (r *Rack) Actuate(c server.Config) error {
	if r.Injector != nil {
		return r.Knobs.ApplyAlive(c, r.Injector.ServerDown)
	}
	return r.Knobs.ApplyAll(c)
}

// Recharge is a non-sprinting epoch's battery upkeep: the bank takes
// the green output, topped up from the grid at GridRechargePower once
// the DoD trigger has fired (§III-A Case 3).
func (r *Rack) Recharge(green units.Watt, epoch time.Duration) {
	r.Selector.RechargeFromGreen(green, epoch)
	if r.Selector.NeedsRecharge() {
		r.Selector.RechargeFromGrid(GridRechargePower, epoch)
	}
}

// RackSnapshot is a rack's component state. Breaker and Chaos are
// present exactly when the rack has a breaker model and an injector.
// The knob herd is Knobs, or — in checkpoints cut before the herd
// existed — the flat per-knob layout Flat, which Restore migrates. The
// json names are those both checkpoint formats carry the components
// under.
type RackSnapshot struct {
	Selector pss.SelectorSnapshot     `json:"selector"`
	Breaker  *cluster.BreakerSnapshot `json:"breaker,omitempty"`
	Chaos    *chaos.InjectorSnapshot  `json:"chaos,omitempty"`
	Knobs    *pmk.ClassFleetSnapshot  `json:"class_fleet,omitempty"`
	Flat     *pmk.FleetSnapshot       `json:"fleet,omitempty"`
}

// Snapshot captures the rack's components; the rack is not perturbed.
func (r *Rack) Snapshot() RackSnapshot {
	knobs := r.Knobs.Snapshot()
	s := RackSnapshot{Selector: r.Selector.Snapshot(), Knobs: &knobs}
	if r.Breaker != nil {
		b := r.Breaker.Snapshot()
		s.Breaker = &b
	}
	if r.Injector != nil {
		c := r.Injector.Snapshot()
		s.Chaos = &c
	}
	return s
}

// Restore replaces the rack's component state. The snapshot must have
// been cut from a rack of the same shape: breaker and chaos presence
// must agree, and each component snapshot must fit. The alive census
// and stuck switch are recounted from the restored injector, which also
// tells a flat-layout migration which servers to detach.
func (r *Rack) Restore(s RackSnapshot) error {
	switch {
	case (s.Chaos == nil) != (r.Injector == nil):
		return errors.New("checkpoint and rack disagree on chaos schedule")
	case (s.Breaker == nil) != (r.Breaker == nil):
		return errors.New("checkpoint and rack disagree on the PDU breaker model")
	case s.Knobs == nil && s.Flat == nil:
		return errors.New("checkpoint carries no knob fleet")
	}
	if err := r.Selector.Restore(s.Selector); err != nil {
		return err
	}
	if r.Breaker != nil {
		if err := r.Breaker.Restore(*s.Breaker); err != nil {
			return err
		}
	}
	var down func(int) bool
	if r.Injector != nil {
		if err := r.Injector.Restore(*s.Chaos); err != nil {
			return err
		}
		r.recount()
		down = r.Injector.ServerDown
	}
	if s.Knobs == nil {
		return r.Knobs.RestoreFlat(*s.Flat, down)
	}
	return r.Knobs.Restore(*s.Knobs)
}
