package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/pmk"
	"greensprint/internal/profile"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/strategy"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// Rack is the modelled state of the green servers one control loop
// manages — the paper's rack, or a generated fleet: the PSS selector
// over the battery bank, the knob herd, the optional PDU breaker, the
// optional chaos injector and the alive census derived from it. Engine
// and core.Controller each drive one, so both loops share one decision
// epoch (Decide, over the Plant each loop supplies) and one fault path
// — applying chaos transitions, rendering chaos and epoch events,
// actuating the live servers, the idle upkeep and checkpointing the
// components — while each keeps its own clock, learning, event
// emission and locking. A Rack is not safe for concurrent use.
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

	cfg        RackConfig
	alive      int   //greensprint:allow(statecov) derived: Restore recounts it from the restored injector's ref-counts (all servers when chaos is off)
	classAlive []int //greensprint:allow(statecov) derived: Restore recounts the per-class census from the restored injector's ref-counts
	// sprintFrac is the SprintFraction closure handed to the strategy.
	// It reads predGreen and the alive census instead of capturing
	// them, so it is allocated once per rack, not once per epoch.
	sprintFrac func(units.Watt) float64
	predGreen  units.Watt //greensprint:allow(statecov) per-epoch intermediate: Decide writes it before the strategy can probe sprintFrac
	// normal caches each class's per-server Normal-mode draw at
	// normalRate (NaN until normalDraw first runs).
	normal     []units.Watt //greensprint:allow(statecov) derived cache: a pure function of normalRate and the class kernels
	normalRate float64      //greensprint:allow(statecov) derived cache key: normalDraw recomputes the draws for any other rate
}

// RackConfig describes a Rack: its census, components and decision
// context.
type RackConfig struct {
	// Counts[c] servers are of class c, each with the profiling table
	// Tables[c] and the queueing kernel Kernels[c]. ClassOf maps a
	// server index to its class and must be total over the rack.
	Counts  []int
	ClassOf func(int) int
	Tables  []*profile.Table
	Kernels []*workload.Kernel
	// Bank backs the PSS. Breaker and Injector may be nil; Injector
	// must be resolved for the rack's server and battery-unit census.
	Bank     battery.Store
	Breaker  *cluster.Breaker
	Injector *chaos.Injector
	// Strategy decides one setting for every server; Table keys its
	// levels; Epoch is the scheduling-epoch length.
	Strategy strategy.Strategy
	Table    *profile.Table
	Epoch    time.Duration
	// Overdraw enables the breaker-overdraw last resort (see
	// Config.AllowBreakerOverdraw) on a rack with a Breaker.
	Overdraw bool
}

// NewRack assembles the rack c describes.
func NewRack(c RackConfig) (*Rack, error) {
	knobs := pmk.NewClassFleet(c.Counts, c.ClassOf)
	n := knobs.Size()
	if inj := c.Injector; inj != nil {
		s := inj.Schedule()
		if s.Servers != n {
			return nil, fmt.Errorf("chaos schedule resolved for %d servers, rack has %d", s.Servers, n)
		}
		if s.Units != c.Bank.Size() {
			return nil, fmt.Errorf("chaos schedule resolved for %d battery units, bank has %d", s.Units, c.Bank.Size())
		}
	}
	r := &Rack{
		Selector:   pss.New(c.Bank),
		Knobs:      knobs,
		Breaker:    c.Breaker,
		Injector:   c.Injector,
		cfg:        c,
		alive:      n,
		classAlive: append([]int(nil), c.Counts...),
		normal:     make([]units.Watt, len(c.Counts)),
		normalRate: math.NaN(),
	}
	r.sprintFrac = func(perServer units.Watt) float64 {
		return r.Selector.SustainFraction(units.Watt(float64(perServer)*float64(r.alive)), r.predGreen, r.cfg.Epoch)
	}
	return r, nil
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
	copy(r.classAlive, r.cfg.Counts)
	for s := 0; s < r.Knobs.Size(); s++ {
		if r.Injector.ServerDown(s) {
			r.classAlive[r.cfg.ClassOf(s)]--
		}
	}
}

// ChaosEvent renders one fault or recovery transition for the event
// stream, stamped with the epoch index it strikes in and the caller's
// clock reading at (empty for loops on the wall clock).
func (r *Rack) ChaosEvent(a chaos.Action, index int, at string) obs.Event {
	kind := "fault"
	if a.Recovered {
		kind = "recover"
	}
	return obs.Event{
		Epoch:        index,
		Time:         at,
		EpochSeconds: r.cfg.Epoch.Seconds(),
		Strategy:     r.cfg.Strategy.Name(),
		Servers:      r.Knobs.Size(),
		Chaos:        kind,
		ChaosMode:    a.Fault.Mode.String(),
		ChaosTarget:  a.Fault.Target,
		ChaosDetail:  a.Fault.String(),
	}
}

// EpochLine is what an epoch's event line carries beyond its record
// and the rack: the epoch's index, its start on the caller's clock
// (empty on the wall clock) and a fleet run's class stats, then the
// members only a live loop measures or predicts. The simulator leaves
// those zero, and omitempty drops them; Alive is emitted only while
// below the rack's server count.
type EpochLine struct {
	Index   int
	Time    string
	Classes []obs.ClassStat

	ServerPower, Budget, PredictedGreen, Demand units.Watt
	PredictedRate                               float64
	Alive                                       int
}

// EpochEvent renders one epoch line, for either loop, from rec — its
// telemetry, decision and per-provisioned-server power split — and the
// rack's strategy, epoch length, census, battery cycles and breaker.
func (r *Rack) EpochEvent(rec *EpochRecord, l EpochLine) obs.Event {
	// Classes differ only in their power envelope: every kernel holds
	// the workload's deadline.
	deadline := r.cfg.Kernels[0].Profile().Deadline
	ev := obs.Event{
		Epoch: l.Index, Time: l.Time, EpochSeconds: r.cfg.Epoch.Seconds(), Strategy: r.cfg.Strategy.Name(),
		Servers: r.Knobs.Size(), InBurst: rec.InBurst,
		GreenSupplyW: float64(rec.Supply), OfferedRate: rec.Offered, Goodput: rec.Goodput,
		LatencySec: rec.Latency, ServerPowerW: float64(l.ServerPower),
		Case: rec.Case.String(), Config: rec.Config.String(), Sprinting: rec.Config.IsSprinting(),
		BudgetW: float64(l.Budget), PredictedGreenW: float64(l.PredictedGreen), PredictedRate: l.PredictedRate,
		DemandW: float64(l.Demand), SprintFraction: rec.SprintFraction,
		GreenW: float64(rec.Green), BatteryW: float64(rec.Battery), GridW: float64(rec.Grid),
		SoC: rec.SoC, BatteryCycles: r.Selector.Bank().EquivalentCycles(),
		QoSViolation: deadline > 0 && rec.Latency > deadline, Classes: l.Classes,
	}
	if l.Alive < ev.Servers {
		ev.Alive = l.Alive
	}
	if r.Breaker != nil {
		ev.BreakerStress = r.Breaker.Stress()
	}
	return ev
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

// Upkeep is a non-sprinting epoch's rack upkeep: the bank takes the
// green output, topped up from the grid at GridRechargePower once the
// DoD trigger has fired (§III-A Case 3), and the breaker cools.
func (r *Rack) Upkeep(green units.Watt) {
	r.Selector.RechargeFromGreen(green, r.cfg.Epoch)
	if r.Selector.NeedsRecharge() {
		r.Selector.RechargeFromGrid(GridRechargePower, r.cfg.Epoch)
	}
	if r.Breaker != nil {
		r.Breaker.Step(0, r.cfg.Epoch)
	}
}

// Plant is what a loop knows about the epoch it decides beyond the
// rack's state; its fields name the lookahead. Engine models the plant
// and passes oracle values: the epoch's true offered rate and green
// supply, and its burst window. A live loop (core.Controller) passes
// its last measurements and its predictions instead.
//
// Learning is lookahead too, and stays with each loop. Engine learns
// after the epoch from its modelled outcome, with a Next built from the
// burst schedule, which knows when the burst ends. A live loop learns
// before deciding, from the telemetry of the epoch that just ended,
// with this epoch's inputs as Next: Learn carries that feedback.
type Plant struct {
	// Green is the supply the allocation runs against: the epoch's
	// observed supply, or the last measured one.
	Green units.Watt
	// Predicted is the workload predictor's rate the strategy sees.
	Predicted float64
	// Rate keys the profiling level and the demand: the epoch's
	// offered rate, or the prediction.
	Rate float64
	// NormalRate prices the Normal-mode draw the allocator falls back
	// to: the burst rate, or the prediction.
	NormalRate float64
	// Burst reports whether the grid budget is committed to the grid-fed
	// servers: the burst window, or a predicted rate above half the
	// table's MaxRate. During a burst every decision is allocated;
	// outside one a Normal decision rides the grid during Upkeep.
	Burst bool
	// Learn, when set, is learned after the inputs are built and before
	// the strategy decides, with Supply and Next filled in.
	Learn *strategy.Feedback
}

// Decision is one decision epoch's outcome. Decided is the strategy's
// pick; Chosen is what the epoch sprints at, Decided or its overdraw
// downgrade; Applied is what the servers run after allocation, Normal
// under grid fallback. Budget is the per-alive-server power the PSS
// committed against PredictedGreen, and Demand the rack's aggregate
// demand at Chosen.
type Decision struct {
	Decided, Chosen, Applied       server.Config
	Budget, PredictedGreen, Demand units.Watt
	Alloc                          pss.Allocation
}

// Decide runs one decision epoch: the PSS budget, the strategy's inputs
// and decision, the demand, and then the breaker-overdraw last resort,
// the PSS allocation or the idle upkeep. It changes the bank, the
// accounting and the breaker but not the knob herd, which Apply
// actuates, so a caller can write a real host first. The rack must
// have a server alive.
func (r *Rack) Decide(p Plant) Decision {
	in := r.inputs(p.Predicted)
	in.SprintFraction = r.sprintFrac
	r.predGreen = r.Selector.PredictedSupply()
	if p.Learn != nil {
		p.Learn.Supply = r.learnerSupply(p.Green)
		p.Learn.Next = in
		r.cfg.Strategy.Learn(*p.Learn)
	}
	d := Decision{Decided: r.cfg.Strategy.Decide(in), Budget: in.Budget, PredictedGreen: r.predGreen}
	d.Chosen = d.Decided
	level := r.cfg.Table.LevelFor(p.Rate)
	d.Demand = r.demand(level, d.Chosen, p.Rate)
	switch {
	case !p.Burst && !d.Chosen.IsSprinting():
		d.Alloc = pss.Allocation{Case: pss.CaseGridFallback, Grid: r.normalDraw(p.NormalRate)}
		r.Upkeep(p.Green)
	case r.tryOverdraw(&d, level, p):
		d.Alloc = r.Selector.AllocateOverdraw(d.Demand, p.Green, r.cfg.Epoch)
	default:
		d.Alloc = r.Selector.Allocate(d.Demand, p.Green, r.cfg.Epoch, r.normalDraw(p.NormalRate))
		if r.Breaker != nil {
			r.Breaker.Step(r.Breaker.Rated, r.cfg.Epoch) // within budget: no extra stress
		}
	}
	d.Applied = d.Chosen
	if d.Alloc.Case == pss.CaseGridFallback {
		d.Applied = server.Normal()
	}
	return d
}

// Apply actuates a decision in the order its epoch took it: the
// strategy's pick, the overdraw downgrade, Normal on grid fallback.
// Each step after the first runs only when it changes the setting.
func (r *Rack) Apply(d Decision) error {
	err := r.Actuate(d.Decided)
	if err == nil && d.Chosen != d.Decided {
		err = r.Actuate(d.Chosen)
	}
	if err == nil && d.Applied != d.Chosen {
		err = r.Actuate(d.Applied)
	}
	return err
}

// inputs is the strategy's view of the rack at a predicted rate, less
// SprintFraction: the PSS's committed budget (predicted green plus
// Peukert-sustainable battery power) per alive server, and the
// degraded-capacity features, both 1 on a fault-free rack.
func (r *Rack) inputs(predicted float64) strategy.Inputs {
	return strategy.Inputs{
		Table:         r.cfg.Table,
		PredictedRate: predicted,
		Budget:        units.Watt(float64(r.Selector.AvailablePower(r.cfg.Epoch)) / float64(r.alive)),
		Epoch:         r.cfg.Epoch,
		AliveFraction: float64(r.alive) / float64(r.Knobs.Size()),
		BatteryHealth: r.Selector.Bank().Health(),
	}
}

// learnerSupply is the per-alive-server supply a strategy learns
// against: green plus Peukert-sustainable battery power.
func (r *Rack) learnerSupply(green units.Watt) units.Watt {
	return units.Watt(float64(green)/float64(r.alive)) + r.Selector.BatterySustainable(r.cfg.Epoch)/units.Watt(r.alive)
}

// tryOverdraw is the paper's last resort (§III-A Case 3) on a rack
// built with it: when green and battery cannot carry the sprint at
// all, the setting is downgraded to fit the green supply plus what the
// breaker's remaining thermal budget tolerates for a full epoch, and
// the excess is drawn from the grid above the budget. It reports
// whether the epoch overdraws; a downgrade that fits the green supply
// alone is left to the regular allocation.
func (r *Rack) tryOverdraw(d *Decision, level int, p Plant) bool {
	b, epoch := r.Breaker, r.cfg.Epoch
	if !r.cfg.Overdraw || b == nil || b.Tripped() || !d.Chosen.IsSprinting() ||
		r.Selector.SustainFraction(d.Demand, p.Green, epoch) > 0 {
		return false
	}
	maxExtra := units.Watt(float64(b.Rated) * (b.MaxOverload - 1) *
		(1 - b.Stress()) * float64(b.TripAfter) / float64(epoch))
	budget := units.Watt((float64(p.Green) + float64(maxExtra)) / float64(r.alive))
	en, ok := r.cfg.Table.BestWithin(level, budget, nil)
	if !ok || !en.Config().IsSprinting() {
		return false
	}
	d.Chosen = en.Config()
	d.Demand = r.demand(level, d.Chosen, p.Rate)
	overdraw := d.Demand - p.Green
	if overdraw <= 0 {
		return false
	}
	b.Step(b.Rated+overdraw, epoch)
	return true
}

// demand is the rack's aggregate power demand at config c: the sum
// over alive classes of each class's table entry, or its kernel at
// rate off the table — O(classes), not O(servers). A one-class rack
// gets the per-server load times the alive count (0 + x is exact).
func (r *Rack) demand(level int, c server.Config, rate float64) units.Watt {
	var sum float64
	for i, alive := range r.classAlive {
		if alive == 0 {
			continue
		}
		perServer, ok := r.cfg.Tables[i].LoadPower(level, c)
		if !ok {
			perServer = r.cfg.Kernels[i].LoadPower(c, rate)
		}
		sum += float64(perServer) * float64(alive)
	}
	return units.Watt(sum)
}

// normalDraw is the rack's aggregate Normal-mode draw at rate, summed
// like demand. The per-class draws are cached for the last rate, so a
// loop with a constant rate (Engine's burst rate) computes them once.
func (r *Rack) normalDraw(rate float64) units.Watt {
	if math.Float64bits(rate) != math.Float64bits(r.normalRate) {
		for i, k := range r.cfg.Kernels {
			r.normal[i] = k.LoadPower(server.Normal(), rate)
		}
		r.normalRate = rate
	}
	var sum float64
	for i, alive := range r.classAlive {
		if alive > 0 {
			sum += float64(r.normal[i]) * float64(alive)
		}
	}
	return units.Watt(sum)
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
