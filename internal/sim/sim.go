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

// EpochsIn returns how many epochs of length epoch it takes to cover
// d: ceil(d/epoch), 0 when d <= 0. The last counted epoch may extend
// past d. It sizes a run's horizon (Engine.TotalEpochs), idle
// segments, and the chaos timelines the CLIs resolve for a run.
func EpochsIn(d, epoch time.Duration) int {
	if d <= 0 {
		return 0
	}
	n := int(d / epoch)
	if time.Duration(n)*epoch < d {
		n++
	}
	return n
}

// MaxEpochs bounds the entries of any slice sized from a run's horizon,
// lead + burst + tail: the engine's records at the run's epoch, a chaos
// timeline, and greensprint-sim's synthesized 1-minute supply trace. It
// admits a leap year at 1-minute epochs (366 × 1440), the finest step
// the synthesized supply is sampled at, and caps a run's record log at
// about 72 MB.
const MaxEpochs = 366 * 24 * 60

// CheckHorizon fails unless lead + burst + tail, none of them negative,
// fits a time.Duration and spans at most MaxEpochs epochs of length
// epoch.
func CheckHorizon(lead, burst, tail, epoch time.Duration) error {
	total := lead + burst + tail
	if lead+burst < lead || total < lead+burst {
		return fmt.Errorf("lead %v + burst %v + tail %v overflows", lead, burst, tail)
	}
	if n := EpochsIn(total, epoch); n > MaxEpochs {
		return fmt.Errorf("horizon %v is %d epochs of %v, more than %d", total, n, epoch, MaxEpochs)
	}
	return nil
}

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
	if c.Lead < 0 || c.Tail < 0 {
		return fmt.Errorf("sim: negative lead %v or tail %v", c.Lead, c.Tail)
	}
	epoch := c.Epoch
	if epoch == 0 {
		epoch = DefaultEpoch
	}
	if err := CheckHorizon(c.Lead, c.Burst.Duration, c.Tail, epoch); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// runBurstEpoch executes one sprinting epoch: the rack's decision
// epoch over the oracle plant — the epoch's actual offered rate and
// green supply, the burst rate for the Normal fallback — then the
// modelled outcome and the learner's feedback. All queueing quantities
// come from the engine's memoized kernel and latency cache (exact value
// reuse — see workload.Kernel and latency), so an epoch of a square
// burst runs without a single bisection.
func (e *Engine) runBurstEpoch(rec EpochRecord, predicted float64) EpochRecord {
	offered := rec.Offered
	// Per-server figures are normalized per provisioned server n; the
	// rack's demand arithmetic runs over the m servers actually up
	// (m == n on fault-free runs).
	n, m := e.rack.Knobs.Size(), e.rack.Alive()
	d := e.rack.Decide(Plant{
		Green:      rec.Supply,
		Predicted:  predicted, // EWMA of the offered rate; equals it for square bursts
		Rate:       offered,
		NormalRate: e.offeredBurst,
		Burst:      rec.InBurst,
	})
	_ = e.rack.Apply(d)
	chosen, al := d.Chosen, d.Alloc

	// The sprint runs for al.SprintFraction of the epoch; for the
	// remainder the servers are back on grid-powered Normal mode.
	frac := al.SprintFraction
	executed := chosen
	if frac < 0.5 || al.Case == pss.CaseGridFallback {
		executed = server.Normal()
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

	// Feed the modelled epoch back to the learner with the next
	// epoch's state; the burst schedule knows when the burst ends.
	nextOffered := offered
	if !rec.Start.Add(e.epoch).Before(e.burstEnd) {
		nextOffered = 0
	}
	actualPower := units.Watt(frac*float64(e.kernel.LoadPower(chosen, offered)) +
		(1-frac)*float64(e.kernel.LoadPower(server.Normal(), offered)))
	e.cfg.Strategy.Learn(strategy.Feedback{
		Chosen:  executed,
		Supply:  e.rack.learnerSupply(rec.Supply),
		Power:   actualPower,
		Offered: offered,
		Goodput: rec.Goodput,
		Latency: rec.Latency,
		Next:    e.rack.inputs(nextOffered),
	})
	return rec
}

// idleRecord fills in a non-burst epoch's record from rec.Offered and
// the alive census: Normal mode on the grid. Neither input changes
// inside an idle segment, so runIdleSegment calls it once per segment
// and step once per epoch.
func (e *Engine) idleRecord(rec EpochRecord) EpochRecord {
	offered := rec.Offered
	_ = e.rack.Actuate(server.Normal())
	rec.Case = pss.CaseGridFallback
	rec.Config = server.Normal()
	rec.Goodput = e.kernel.Goodput(server.Normal(), offered)
	e.perAliveGoodput = rec.Goodput
	rec.Latency = e.latency(server.Normal(), offered)
	rec.Grid = e.kernel.LoadPower(server.Normal(), offered)
	n, m := e.rack.Knobs.Size(), e.rack.Alive()
	if m != n {
		// Crashed servers neither serve nor draw: the per-provisioned-
		// server aggregates shrink by the alive fraction.
		scale := float64(m) / float64(n)
		rec.Goodput *= scale
		rec.Grid = units.Watt(float64(rec.Grid) * scale)
	}
	if len(e.topo.Classes) > 1 {
		// Heterogeneous classes draw different Normal-mode power: the
		// per-provisioned-server grid figure is the class-weighted
		// mean. (A single class keeps the exact expression above.)
		rec.Grid = units.Watt(float64(e.rack.normalDraw(offered)) / float64(n))
	}
	return rec
}

// idleUpkeep runs the per-epoch state of a non-burst or outage epoch:
// the rack's upkeep (battery recharge, breaker cooling), and each
// alive class accumulates its Normal-mode energy. Cumulative sums must
// accumulate per epoch (x+d+d is not x+2d in floating point), so an
// idle segment runs it every epoch too.
func (e *Engine) idleUpkeep(greenObserved units.Watt, offered float64) {
	e.rack.Upkeep(greenObserved)
	e.accumulateClassEnergy(server.Normal(), 0, offered)
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
	for i, k := range e.rack.cfg.Kernels {
		alive := e.rack.ClassAlive(i)
		if alive == 0 {
			continue
		}
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
