// Package sim is the discrete-time simulation engine that reproduces
// the paper's prototype experiments: a green-provisioned rack serving
// an interactive workload burst while the GreenSprint controller
// (Predictor + PSS + strategy + PMK) manages power sources and
// sprinting intensity over 5-minute scheduling epochs.
//
// The engine focuses, as the paper's analysis does, on the
// green-provisioned servers: during a burst the grid budget is fully
// committed to the grid-fed servers, so the green servers run entirely
// from renewable + battery power and fall back to grid-powered Normal
// mode only when both are exhausted.
package sim

import (
	"fmt"
	"math"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/pmk"
	"greensprint/internal/profile"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/strategy"
	"greensprint/internal/trace"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// DefaultEpoch is the paper's scheduling-epoch length.
const DefaultEpoch = 5 * time.Minute

// Config describes one simulation run.
type Config struct {
	// Workload is the interactive application under test.
	Workload workload.Profile
	// Green is the Table I green-provisioning option.
	Green cluster.GreenConfig
	// Fleet optionally replaces the Green rack with a generated
	// heterogeneous topology (see internal/fleet): weighted
	// server-class templates stamped into racks, each class with its
	// own power envelope, battery pack and zone. Either way the engine
	// runs one structure-of-arrays core — per-class battery groups,
	// class-indexed knob herds, O(classes) power aggregation — over the
	// paper's rack as the one-class fleet fleet.FromGreen lifts from
	// Green. When set, Green is ignored except as workload context
	// (and the breaker budget), and the run reports per-class stats:
	// event class stats, Result.ClassEnergyWh and checkpointed class
	// energy. The spec fleet.FromGreen(Green, 1) reproduces the default
	// run's Result bit-for-bit.
	Fleet *fleet.Spec
	// Strategy decides the per-server setting each epoch.
	Strategy strategy.Strategy
	// Table is the workload's profiling table (built if nil).
	Table *profile.Table
	// Burst is the workload burst to serve.
	Burst workload.Burst
	// Supply is the green AC power trace covering the run; the
	// simulation starts at Supply.Start.
	Supply *trace.Trace
	// Offered optionally replays a time-varying offered-rate trace
	// (req/s per server) instead of the square Burst profile. When
	// set, the strategy sees the EWMA-predicted rate (the paper's
	// workload Predictor) rather than the true rate, and Burst only
	// delimits the sprinting window.
	Offered *trace.Trace
	// Lead and Tail are non-burst periods before/after the burst
	// during which the servers run Normal mode and the batteries
	// recharge.
	Lead, Tail time.Duration
	// Epoch is the scheduling-epoch length (DefaultEpoch if zero).
	Epoch time.Duration
	// AllowBreakerOverdraw enables the paper's last resort (§III-A
	// Case 3): when green and battery are exhausted mid-burst, the
	// green servers keep sprinting on grid power drawn *above* the
	// budget, bounded by the PDU breaker's thermal trip curve. Once
	// the breaker's stress budget is spent, the rack falls back to
	// Normal mode for the rest of the run.
	AllowBreakerOverdraw bool
	// Sink optionally receives one obs.Event per scheduling epoch as
	// Engine.Step runs. Events carry the simulation clock, so a
	// fixed-seed replay emits a bit-identical stream across runs and
	// across sharded vs. sequential execution (a restored engine
	// re-emits nothing for epochs already run).
	Sink obs.Sink
	// Chaos optionally replays a resolved fault-injection timeline
	// against the run (see internal/chaos). The schedule must match
	// the config's topology (green servers, battery units). Fault and
	// recovery transitions are emitted as their own events ahead of
	// the epoch record they strike in, and the injector's replay state
	// rides the checkpoint, so a chaos run shards and resumes
	// bit-identically like a fault-free one.
	Chaos *chaos.Schedule
}

// EpochRecord captures one scheduling epoch of one run. The json tags
// pin the historical wire names (the Go identifiers) so a field rename
// cannot silently change the golden results or the checkpoint schema.
type EpochRecord struct {
	Start    time.Time     `json:"Start"`
	InBurst  bool          `json:"InBurst"`
	Case     pss.Case      `json:"Case"`
	Config   server.Config `json:"Config"`
	Supply   units.Watt    `json:"Supply"`   // green power available (observed)
	Green    units.Watt    `json:"Green"`    // green power delivered to servers
	Battery  units.Watt    `json:"Battery"`  // battery power delivered
	Grid     units.Watt    `json:"Grid"`     // grid power delivered (fallback/Normal)
	Offered  float64       `json:"Offered"`  // per-server offered rate
	Goodput  float64       `json:"Goodput"`  // per-server QoS-compliant throughput
	NormPerf float64       `json:"NormPerf"` // goodput normalized to Normal mode
	Latency  float64       `json:"Latency"`  // effective SLA-percentile latency (s)
	SoC      float64       `json:"SoC"`      // battery mean state of charge after epoch
	// SprintFraction is the fraction of the epoch the sprint was
	// powered (0 outside bursts and under grid fallback).
	SprintFraction float64 `json:"SprintFraction"`
}

// Result is the outcome of a run.
type Result struct {
	Records []EpochRecord
	// MeanNormPerf is the time-average normalized performance over
	// the burst epochs — the y-axis of Figures 6-10.
	MeanNormPerf float64
	// Account is the cumulative energy accounting.
	Account cluster.EnergyAccount
	// BatteryCycles is the equivalent battery cycle usage.
	BatteryCycles float64
	// ClassFleet exposes the class-indexed knob herd (for transition
	// counting).
	ClassFleet *pmk.ClassFleet
	// ClassEnergyWh is the cumulative per-class server energy of a
	// run with a Config.Fleet, indexed like the fleet spec's templates
	// (nil for the paper's rack).
	ClassEnergyWh []float64
}

// BurstRecords returns only the in-burst epochs.
func (r *Result) BurstRecords() []EpochRecord {
	var out []EpochRecord
	for _, rec := range r.Records {
		if rec.InBurst {
			out = append(out, rec)
		}
	}
	return out
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Fleet != nil {
		if err := c.Fleet.Validate(); err != nil {
			return err
		}
	} else if err := c.Green.Validate(); err != nil {
		return err
	}
	if c.Strategy == nil {
		return fmt.Errorf("sim: nil strategy")
	}
	if c.Supply == nil || c.Supply.Len() == 0 {
		return fmt.Errorf("sim: empty supply trace")
	}
	if c.Burst.Duration <= 0 {
		return fmt.Errorf("sim: non-positive burst duration %v", c.Burst.Duration)
	}
	if c.Epoch < 0 {
		return fmt.Errorf("sim: negative epoch %v", c.Epoch)
	}
	return nil
}

// runBurstEpoch executes one sprinting epoch. All queueing quantities
// come from the engine's memoized kernel and latency cache (exact value
// reuse — see workload.Kernel and latency), so an epoch of a square
// burst runs without a single bisection.
func (e *Engine) runBurstEpoch(rec EpochRecord, greenObserved units.Watt,
	offered, predicted float64, at time.Time) EpochRecord {

	cfg, tab, selector, breaker := &e.cfg, e.tab, e.selector, e.breaker
	epoch := e.epoch
	// All demand arithmetic runs over the servers actually up this
	// epoch; m == n on fault-free runs, so every expression below is
	// bit-identical to the pre-chaos engine there.
	n, m := e.n, e.alive

	// The strategy sees the PSS's committed budget: predicted green
	// plus Peukert-sustainable battery power, per server.
	budget := units.Watt(float64(selector.AvailablePower(epoch)) / float64(m))
	e.predGreen = selector.PredictedSupply()
	in := strategy.Inputs{
		Table:         tab,
		PredictedRate: predicted, // EWMA of the offered rate; equals it for square bursts
		Budget:        budget,
		Epoch:         epoch,
		// sprintFrac reads e.predGreen; the closure is allocated once
		// in New rather than once per epoch.
		SprintFraction: e.sprintFrac,
		// Degraded-capacity state features: both are exactly 1 on a
		// fault-free engine, so the Hybrid's state (and its decisions)
		// are bit-identical to the pre-chaos engine there.
		AliveFraction: float64(m) / float64(n),
		BatteryHealth: selector.Bank().Health(),
	}
	chosen := cfg.Strategy.Decide(in)
	e.applyFleet(chosen)

	level := tab.LevelFor(offered)
	demand := e.sprintDemand(level, chosen, offered)
	var al pss.Allocation
	useOverdraw := false
	if breaker != nil && !breaker.Tripped() && chosen.IsSprinting() &&
		selector.SustainFraction(demand, greenObserved, epoch) <= 0 {
		// Last resort (§III-A Case 3): green+battery cannot carry the
		// sprint; keep sprinting on bounded grid overdraw. To avoid
		// tripping the breaker, the total downstream power is limited
		// to what the breaker's remaining thermal budget tolerates
		// for a full epoch, and the setting is downgraded to fit.
		stressLeft := 1 - breaker.Stress()
		maxExtra := units.Watt(float64(breaker.Rated) * (breaker.MaxOverload - 1) *
			stressLeft * float64(breaker.TripAfter) / float64(epoch))
		budget := units.Watt((float64(greenObserved) + float64(maxExtra)) / float64(m))
		if en, ok := tab.BestWithin(level, budget, nil); ok && en.Config().IsSprinting() {
			chosen = en.Config()
			e.applyFleet(chosen)
			demand = e.sprintDemand(level, chosen, offered)
			if overdraw := demand - greenObserved; overdraw > 0 {
				breaker.Step(breaker.Rated+overdraw, epoch)
				useOverdraw = true
			}
			// If the downgraded setting fits the green supply
			// alone, the regular allocation below handles it as
			// a green-only epoch.
		}
	}
	if useOverdraw {
		al = selector.AllocateOverdraw(demand, greenObserved, epoch)
	} else {
		al = selector.Allocate(demand, greenObserved, epoch, e.normalFleetPower())
		if breaker != nil {
			breaker.Step(breaker.Rated, epoch) // within budget: no extra stress
		}
	}

	// The sprint runs for al.SprintFraction of the epoch; for the
	// remainder the servers are back on grid-powered Normal mode.
	frac := al.SprintFraction
	executed := chosen
	if frac < 0.5 {
		executed = server.Normal()
	}
	if al.Case == pss.CaseGridFallback {
		executed = server.Normal()
		e.applyFleet(executed)
	}
	rec.Case = al.Case
	rec.Config = executed
	rec.SprintFraction = frac
	rec.Green = units.Watt(float64(al.Green) / float64(n))
	rec.Battery = units.Watt(float64(al.Battery) / float64(n))
	rec.Grid = units.Watt(float64(al.Grid) / float64(n))
	goodSprint := e.kernel.Goodput(chosen, offered)
	goodNormal := e.kernel.Goodput(server.Normal(), offered)
	rec.Goodput = frac*goodSprint + (1-frac)*goodNormal
	e.perAliveGoodput = rec.Goodput
	if m != n {
		// Goodput is normalized per provisioned server: crashed
		// servers serve nothing, so the rack delivers the alive
		// fraction of it.
		rec.Goodput *= float64(m) / float64(n)
	}
	// EffectiveLatency is finite, so at frac 0 or 1 the other term is
	// exactly +0 and adding it changes no bit: skip its lookup.
	switch frac {
	case 0:
		rec.Latency = (1 - frac) * e.latency(server.Normal(), offered)
	case 1:
		rec.Latency = frac * e.latency(chosen, offered)
	default:
		latSprint := e.latency(chosen, offered)
		latNormal := e.latency(server.Normal(), offered)
		rec.Latency = frac*latSprint + (1-frac)*latNormal
	}
	e.accumulateClassEnergy(chosen, frac, offered)

	// Feed the measured epoch back to the learner with the next
	// epoch's state.
	nextBudget := units.Watt(float64(selector.AvailablePower(epoch)) / float64(m))
	nextOffered := offered
	if !at.Add(epoch).Before(e.burstEnd) {
		nextOffered = 0
	}
	actualPower := units.Watt(frac*float64(e.kernel.LoadPower(chosen, offered)) +
		(1-frac)*float64(e.kernel.LoadPower(server.Normal(), offered)))
	cfg.Strategy.Learn(strategy.Feedback{
		Chosen:  executed,
		Supply:  units.Watt(float64(greenObserved)/float64(m)) + selector.BatterySustainable(epoch)/units.Watt(m),
		Power:   actualPower,
		Offered: offered,
		Goodput: rec.Goodput,
		Latency: rec.Latency,
		Next: strategy.Inputs{
			Table:         tab,
			PredictedRate: nextOffered,
			Budget:        nextBudget,
			Epoch:         epoch,
			AliveFraction: float64(m) / float64(n),
			BatteryHealth: selector.Bank().Health(),
		},
	})
	return rec
}

// runIdleEpoch executes one non-burst epoch: Normal mode on the grid,
// batteries recharging from green surplus (or the grid once the DoD
// trigger fires).
func (e *Engine) runIdleEpoch(rec EpochRecord, greenObserved units.Watt, offered float64) EpochRecord {
	selector, epoch := e.selector, e.epoch
	e.applyFleet(server.Normal())
	rec.Case = pss.CaseGridFallback
	rec.Config = server.Normal()
	rec.Goodput = e.kernel.Goodput(server.Normal(), offered)
	e.perAliveGoodput = rec.Goodput
	rec.Latency = e.latency(server.Normal(), offered)
	// Outside bursts the green servers ride the grid; green output
	// charges the batteries, topped up from the grid when the DoD
	// trigger has fired (§III-A Case 3).
	selector.RechargeFromGreen(greenObserved, epoch)
	if selector.NeedsRecharge() {
		selector.RechargeFromGrid(GridRechargePower, epoch)
	}
	rec.Grid = e.kernel.LoadPower(server.Normal(), offered)
	if m := e.alive; m != e.n {
		// Crashed servers neither serve nor draw: the per-provisioned-
		// server aggregates shrink by the alive fraction.
		scale := float64(m) / float64(e.n)
		rec.Goodput *= scale
		rec.Grid = units.Watt(float64(rec.Grid) * scale)
	}
	e.accumulateClassEnergy(server.Normal(), 0, offered)
	if len(e.classes) > 1 {
		// Heterogeneous classes draw different Normal-mode power: the
		// per-provisioned-server grid figure is the class-weighted
		// mean. (A single class keeps the exact expression above.)
		rec.Grid = e.classNormalGrid(offered)
	}
	return rec
}

// runOutageEpoch executes an epoch with every green server down: zero
// goodput, zero draw, no decision to make. Surviving infrastructure
// still runs — the batteries bank whatever green output remains and
// grid recharge continues once the DoD trigger has fired.
func (e *Engine) runOutageEpoch(rec EpochRecord, greenObserved units.Watt) EpochRecord {
	selector, epoch := e.selector, e.epoch
	rec.Case = pss.CaseGridFallback
	rec.Config = server.Normal()
	selector.RechargeFromGreen(greenObserved, epoch)
	if selector.NeedsRecharge() {
		selector.RechargeFromGrid(GridRechargePower, epoch)
	}
	e.perAliveGoodput = 0
	return rec
}

// sprintDemand returns the fleet's aggregate power demand at config c:
// the class-weighted sum over each class's own profiling table and
// kernel — O(classes), not O(servers). For the paper's one-class rack
// it is the per-server load times the alive count (0 + x is exact).
func (e *Engine) sprintDemand(level int, c server.Config, offered float64) units.Watt {
	var demand float64
	for i := range e.classes {
		cl := &e.classes[i]
		alive := e.classAlive[i]
		if alive == 0 {
			continue
		}
		perServer, ok := cl.tab.LoadPower(level, c)
		if !ok {
			perServer = cl.kernel.LoadPower(c, offered)
		}
		demand += float64(perServer) * float64(alive)
	}
	return units.Watt(demand)
}

// normalFleetPower returns the fleet's aggregate Normal-mode draw at
// the burst rate — the grid-fallback demand handed to the allocator.
// Same class-weighted sum as sprintDemand.
func (e *Engine) normalFleetPower() units.Watt {
	var sum float64
	for i := range e.classes {
		if a := e.classAlive[i]; a > 0 {
			sum += float64(e.classes[i].normalPower) * float64(a)
		}
	}
	return units.Watt(sum)
}

// classNormalGrid returns a heterogeneous fleet's per-provisioned-
// server Normal-mode grid draw at the offered rate: the class-weighted
// mean, each class on its own load curve.
func (e *Engine) classNormalGrid(offered float64) units.Watt {
	var sum float64
	for i := range e.classes {
		if a := e.classAlive[i]; a > 0 {
			sum += float64(e.classes[i].kernel.LoadPower(server.Normal(), offered)) * float64(a)
		}
	}
	return units.Watt(sum / float64(e.n))
}

// accumulateClassEnergy folds one epoch's per-class server energy into
// the cumulative counters behind the per-class /metrics gauges: each
// class draws its own load curve for the executed sprint fraction.
// Only runs with a Config.Fleet keep the counters.
func (e *Engine) accumulateClassEnergy(c server.Config, frac float64, offered float64) {
	if e.cfg.Fleet == nil {
		return
	}
	hours := e.epoch.Hours()
	for i := range e.classes {
		alive := e.classAlive[i]
		if alive == 0 {
			continue
		}
		k := e.classes[i].kernel
		p := frac*float64(k.LoadPower(c, offered)) + (1-frac)*float64(k.LoadPower(server.Normal(), offered))
		e.classEnergyWh[i] += p * float64(alive) * hours
	}
}

// latency is the engine's cache over Kernel.EffectiveLatency. The
// sojourn-percentile bisection depends only on (config, offered rate);
// the cache keeps the last pair per knob setting, indexed by
// server.Index, so a square burst — which re-presents the same pair
// every epoch — hits it every time, while a replayed trace whose rate
// moves each epoch costs one bisection and no growth. It holds at most
// server.NumConfigs() entries. The cache is derived data: a restored
// engine repopulates it identically, so it is deliberately absent from
// checkpoints.
func (e *Engine) latency(c server.Config, offered float64) float64 {
	i := server.Index(c)
	if i < 0 {
		return e.kernel.EffectiveLatency(c, offered)
	}
	l := &e.lat[i]
	if l.ok && math.Float64bits(l.offered) == math.Float64bits(offered) {
		return l.value
	}
	*l = latEntry{ok: true, offered: offered, value: e.kernel.EffectiveLatency(c, offered)}
	return l.value
}

// latEntry is one knob setting's slot in the latency cache.
type latEntry struct {
	ok             bool
	offered, value float64
}

func meanWindow(tr *trace.Trace, at time.Time, d time.Duration) float64 {
	w := tr.Window(at, d)
	if len(w) == 0 {
		return tr.At(at)
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	return sum / float64(len(w))
}

// PeakDemand returns the aggregate full-sprint power demand of the
// green servers, used to scale Figure 5's demand line.
func PeakDemand(p workload.Profile, greenServers int) units.Watt {
	return units.Watt(float64(p.PeakPower) * float64(greenServers))
}
