package sim

import (
	"context"
	"fmt"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/predictor"
	"greensprint/internal/profile"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// GridRechargePower is the grid power budget for topping up the
// battery bank during non-sprinting epochs once the DoD recharge
// trigger fires (§III-A Case 3: "we charge the battery with grid power
// in anticipation of future sprints"). The paper keeps this small —
// recharge rides spare grid-budget headroom, it never competes with
// serving load.
const GridRechargePower units.Watt = 100

// Engine is the steppable form of the simulator: New builds the full
// controller stack (Predictor + PSS + strategy + PMK) for a config,
// Step advances one scheduling epoch, and Result aggregates what has
// run so far. Run wraps the three for the common run-to-completion
// case; callers that need mid-run control — checkpointing, sharded
// replays, epoch-by-epoch inspection — drive the Engine directly.
type Engine struct {
	cfg      Config
	epoch    time.Duration
	loadPred *predictor.EWMA

	// rack is the modelled rack — PSS selector and bank, knob herd,
	// optional breaker and chaos injector, alive census, per-class
	// tables and kernels — and its decision epoch, which
	// core.Controller drives through the same code.
	rack *Rack

	// Topology state, structure-of-arrays: the paper's rack is a
	// one-class, one-rack topology (fleet.FromGreen), a generated fleet
	// has one class per template. topo is the topology and fingerprint
	// its digest, pinned into checkpoints. The per-class observability
	// — classEnergyWh, the cumulative per-class server energy
	// (checkpointed so resumed streams continue the counters), and the
	// classEv event buffer — is kept only for runs with a Config.Fleet.
	// perAliveGoodput is the epoch's per-alive-server goodput before
	// alive-fraction scaling, feeding the class stats.
	topo            *fleet.Topology
	fingerprint     string
	classEnergyWh   []float64
	classEv         []obs.ClassStat //greensprint:allow(statecov) per-epoch scratch: truncated and refilled before every event emission
	perAliveGoodput float64         //greensprint:allow(statecov) per-epoch intermediate: written by every epoch before any read

	// kernel is the workload's process-wide shared kernel: it memoizes
	// the per-config queueing constants (max rates, service rates) so
	// the per-epoch hot path runs without bisections; lat caches the last effective latency per knob setting (see
	// latency). Both are derived data rebuilt identically by
	// New/Restore and never checkpointed.
	kernel *workload.Kernel
	lat    []latEntry
	// timeBuf backs the RFC3339Nano timestamp formatting of event
	// lines, reused across epochs.
	timeBuf []byte //greensprint:allow(statecov) formatting arena: overwritten from scratch at each use, carries no run state

	// sinkErr is the first sink failure of the running Step or StepN
	// call: once set, emit drops the call's later events, and endCall
	// reports and clears it when the call returns.
	sinkErr error //greensprint:allow(statecov) call-scoped: set and cleared within one Step/StepN call; checkpoints are cut between calls

	baseGoodput  float64
	burstStart   time.Time
	burstEnd     time.Time
	runEnd       time.Time
	offeredBurst float64
	offeredIdle  float64

	at           time.Time //greensprint:allow(statecov) derived: always start + epochIndex*epoch; Restore recomputes it from the checkpointed EpochIndex
	epochIndex   int
	records      []EpochRecord
	burstPerfSum float64
	burstEpochs  int

	// recLog is the JSON of the records, extended by Checkpoint and
	// dropped by Restore (see encodedRecords).
	recLog recordLog
}

// New validates cfg and builds an Engine positioned at the first
// epoch. The setup matches what Run has always done: the supply
// predictor is primed with the pre-run observation and the workload
// predictor with the first offered-rate window when a trace is
// replayed.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = DefaultEpoch
	}
	var err error
	tab := cfg.Table
	if tab == nil {
		// BuildCached: runs whose callers did not pre-build a table
		// (sweep cells, CLI one-offs) share one immutable profiling
		// table per workload instead of re-profiling per Engine.
		if tab, err = profile.BuildCached(cfg.Workload, profile.DefaultLevels); err != nil {
			return nil, err
		}
	}
	// Topology: the paper's rack is the one-class, one-rack fleet
	// lifted from the Green config; a Config.Fleet replaces it with a
	// generated heterogeneous fleet.
	spec := cfg.Fleet
	if spec == nil {
		if cfg.Green.GreenServers == 0 {
			return nil, fmt.Errorf("sim: no green servers in config %q", cfg.Green.Name)
		}
		rack := fleet.FromGreen(cfg.Green, 1)
		spec = &rack
	}
	topo, err := spec.Generate()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	bank, err := battery.NewClassBank(topo.BatteryClasses())
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var injector *chaos.Injector
	if cfg.Chaos != nil {
		// Zone outages cascade across zone membership, so the schedule
		// must have been resolved for the topology's zone shape; the
		// rack checks the server and battery-unit census.
		zones := cfg.Chaos.Zones
		if zones == 0 {
			zones = chaos.NumZones
		}
		if zones != topo.Zones {
			return nil, fmt.Errorf("sim: chaos schedule resolved for %d zones, fleet has %d",
				zones, topo.Zones)
		}
		if injector, err = chaos.NewInjector(cfg.Chaos); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	var breaker *cluster.Breaker
	if cfg.AllowBreakerOverdraw {
		if len(topo.Racks) > 1 {
			// The breaker model is sized for one rack's PDU; a
			// multi-rack fleet spans many PDU legs with no single
			// breaker to overdraw through.
			return nil, fmt.Errorf("sim: breaker overdraw is not supported with a %d-rack fleet", len(topo.Racks))
		}
		if breaker, err = PDUBreaker(cfg.Green); err != nil {
			return nil, err
		}
	}
	// The reference class (no power override) uses the engine's own
	// table — including a caller-built cfg.Table — and kernel, so the
	// paper's rack computes on exactly those structures. Overridden
	// classes use the process-wide caches keyed by their own profile.
	kernel := workload.SharedKernel(cfg.Workload)
	tables := make([]*profile.Table, len(topo.Classes))
	kernels := make([]*workload.Kernel, len(topo.Classes))
	for i, c := range topo.Classes {
		prof := cfg.Workload
		if c.PeakPower > 0 {
			prof.PeakPower = c.PeakPower
		}
		tables[i], kernels[i] = tab, kernel
		if prof != cfg.Workload {
			if err := prof.Validate(); err != nil {
				return nil, fmt.Errorf("sim: fleet class %q: %w", c.Name, err)
			}
			if tables[i], err = profile.BuildCached(prof, profile.DefaultLevels); err != nil {
				return nil, fmt.Errorf("sim: fleet class %q: %w", c.Name, err)
			}
			kernels[i] = workload.SharedKernel(prof)
		}
	}
	rack, err := NewRack(RackConfig{
		Counts: topo.ClassCounts(), ClassOf: topo.ClassOf, Tables: tables, Kernels: kernels,
		Bank: bank, Breaker: breaker, Injector: injector,
		Strategy: cfg.Strategy, Table: tab, Epoch: epoch, Overdraw: cfg.AllowBreakerOverdraw,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	baseGoodput := kernel.MaxGoodput(server.Normal())
	burstStart := cfg.Supply.Start.Add(cfg.Lead)
	e := &Engine{
		cfg:      cfg,
		epoch:    epoch,
		loadPred: predictor.NewEWMA(predictor.DefaultAlpha),
		rack:     rack,
		kernel:   kernel,
		lat:      make([]latEntry, server.NumConfigs()),

		baseGoodput:  baseGoodput,
		burstStart:   burstStart,
		burstEnd:     burstStart.Add(cfg.Burst.Duration),
		offeredBurst: cfg.Burst.Rate(cfg.Workload),
		// Outside the burst the rack serves a comfortable background
		// load of 60 % of its Normal-mode capacity.
		offeredIdle: 0.6 * baseGoodput,

		at: cfg.Supply.Start,

		topo:        topo,
		fingerprint: topo.Fingerprint(),
	}
	if cfg.Fleet != nil {
		e.classEnergyWh = make([]float64, len(topo.Classes))
	}
	e.runEnd = e.burstEnd.Add(cfg.Tail)
	// The horizon is fixed at construction, so the record slice can be
	// sized once instead of growing by doubling across the run.
	e.records = make([]EpochRecord, 0, e.TotalEpochs())

	// Prime the supply predictor with the pre-run observation so the
	// first epoch has a sensible forecast (the paper's predictor has
	// been running continuously before any burst).
	rack.Selector.ObserveSupply(units.Watt(cfg.Supply.At(cfg.Supply.Start)))
	// Workload predictor (the paper's L_pre EWMA); only used when an
	// offered-rate trace is replayed.
	if cfg.Offered != nil {
		e.loadPred.Observe(meanWindow(cfg.Offered, cfg.Supply.Start, epoch))
	}
	return e, nil
}

// Step advances the simulation by one scheduling epoch. It returns the
// epoch's record and true while the run is in progress, and a zero
// record and false once the configured horizon has been consumed. A
// sink failure is reported after the epoch has run (see emit).
func (e *Engine) Step() (EpochRecord, bool, error) {
	rec, ok, err := e.step()
	return rec, ok, e.endCall(err)
}

// step runs one epoch through the general path: chaos transitions,
// then the outage, burst or idle physics, then commit. Its only error
// is a failed chaos application, which leaves the epoch unrun.
func (e *Engine) step() (EpochRecord, bool, error) {
	if !e.at.Before(e.runEnd) {
		return EpochRecord{}, false, nil
	}
	at := e.at
	inBurst := !at.Before(e.burstStart) && at.Before(e.burstEnd)
	offered := e.offeredIdle
	if inBurst {
		offered = e.offeredBurst
	}
	predicted := offered
	if e.cfg.Offered != nil {
		offered = meanWindow(e.cfg.Offered, at, e.epoch)
		predicted = e.loadPred.Predict()
	}
	if e.rack.Injector != nil {
		// Fault and recovery transitions land at the epoch boundary,
		// before the epoch's physics.
		if err := e.applyChaos(at); err != nil {
			return EpochRecord{}, true, err
		}
	}
	rec := EpochRecord{Start: at, InBurst: inBurst, Supply: e.observedSupply(at), Offered: offered}
	switch {
	case e.rack.Alive() == 0:
		// Every green server is down (a full zone outage, or worse):
		// nothing serves, nothing sprints, the strategy has nothing to
		// decide. Surviving infrastructure still runs — batteries bank
		// whatever green output remains — and the breaker cools.
		rec.Case = pss.CaseGridFallback
		rec.Config = server.Normal()
		e.perAliveGoodput = 0
		e.idleUpkeep(rec.Supply, offered)
	case inBurst:
		rec = e.runBurstEpoch(rec, predicted)
	default:
		rec = e.idleRecord(rec)
		e.idleUpkeep(rec.Supply, offered)
	}
	e.commit(&rec)
	return rec, true, nil
}

// observedSupply is the green supply observed over the epoch starting
// at at: the trace's window mean, zeroed by an active inverter dropout.
func (e *Engine) observedSupply(at time.Time) units.Watt {
	green := units.Watt(meanWindow(e.cfg.Supply, at, e.epoch))
	if e.rack.Injector != nil {
		green = units.Watt(float64(green) * e.rack.Injector.SolarFactor())
	}
	return green
}

// commit closes an epoch, whichever path ran it: it derives rec's
// NormPerf and SoC, feeds the predictors, appends the record, folds
// burst epochs into the mean, advances the clock and emits the event.
func (e *Engine) commit(rec *EpochRecord) {
	if e.baseGoodput > 0 {
		rec.NormPerf = rec.Goodput / e.baseGoodput
	}
	rec.SoC = e.rack.Selector.Bank().SoC()
	e.rack.Selector.ObserveSupply(rec.Supply)
	e.loadPred.Observe(rec.Offered)
	//greensprint:allow(allocfree) the per-epoch record log is the simulation's product; New presizes it to the horizon
	e.records = append(e.records, *rec)
	if rec.InBurst {
		e.burstPerfSum += rec.NormPerf
		e.burstEpochs++
	}
	index := e.epochIndex
	e.at = e.at.Add(e.epoch)
	e.epochIndex++
	if e.cfg.Sink != nil {
		// AppendFormat into a reused buffer: same bytes as Format, one
		// string allocation instead of Format's intermediate buffer.
		e.timeBuf = rec.Start.UTC().AppendFormat(e.timeBuf[:0], time.RFC3339Nano)
		e.emit(e.rack.EpochEvent(rec, EpochLine{Index: index, Time: string(e.timeBuf), Classes: e.classStats()}))
	}
}

// emit hands one event to the sink unless an earlier emission of the
// running Step or StepN call failed, so a sink only ever sees an
// in-order prefix of the stream. The sink consumes the event during
// Emit, so the reused timestamp and class-stat buffers it points into
// are free again once Emit returns.
func (e *Engine) emit(ev obs.Event) {
	if e.sinkErr == nil {
		e.sinkErr = e.cfg.Sink.Emit(ev)
	}
}

// endCall closes a Step or StepN call: err, a failed chaos
// application, wins; otherwise the call's first sink failure is
// returned, wrapped, and cleared for the next call.
func (e *Engine) endCall(err error) error {
	sinkErr := e.sinkErr
	e.sinkErr = nil
	if err == nil && sinkErr != nil {
		err = fmt.Errorf("sim: event sink: %w", sinkErr)
	}
	return err
}

// StepN advances the simulation by up to n scheduling epochs and
// returns how many ran: fewer than n only when the horizon is consumed
// first or a chaos application fails. It runs the epochs Step runs, in
// the same order, through the same commit, so n Step calls and one
// StepN(n) leave identical records, events and checkpoints.
//
// The one shortcut is the idle segment: a run of idle epochs (square
// burst model, no burst, at least one server alive) clipped at the
// burst window, the horizon and the next chaos transition. Its record
// template comes from idleRecord once, and each epoch runs only
// idleUpkeep and commit, which are exactly what step runs for it.
//
// A sink failure drops the call's later events and is returned,
// wrapped like Step's, once the call's epochs have run.
func (e *Engine) StepN(n int) (int, error) {
	ran := 0
	for ran < n && e.at.Before(e.runEnd) {
		if k := e.idleSegmentLen(n - ran); k > 0 {
			e.runIdleSegment(k)
			ran += k
			continue
		}
		if _, _, err := e.step(); err != nil {
			return ran, e.endCall(err)
		}
		ran++
	}
	return ran, e.endCall(nil)
}

// idleSegmentLen returns how many epochs starting at the engine's
// current position can run through the idle fast segment, at most
// limit; 0 means the next epoch must take the general step path. A
// fast segment requires the square-burst offered model (a replayed
// offered trace varies per epoch), at least one alive server (outage
// epochs take the general path), no burst epoch, and no chaos
// transition anywhere in the segment — the segment is clipped at the
// burst start, the horizon, and the injector's next fault or recovery
// epoch, so every hoisted quantity is provably constant across it.
func (e *Engine) idleSegmentLen(limit int) int {
	if e.cfg.Offered != nil || e.rack.Alive() == 0 {
		return 0
	}
	at := e.at
	var k int
	switch {
	case at.Before(e.burstStart):
		k = EpochsIn(e.burstStart.Sub(at), e.epoch)
	case !at.Before(e.burstEnd):
		k = EpochsIn(e.runEnd.Sub(at), e.epoch)
	default:
		return 0
	}
	if k > limit {
		k = limit
	}
	if e.rack.Injector != nil {
		if next := e.rack.Injector.NextTransition(); next >= 0 {
			if d := next - e.epochIndex; d < k {
				k = d
			}
		}
	}
	if k < 0 {
		k = 0
	}
	return k
}

// runIdleSegment runs k idle epochs that idleSegmentLen has cleared.
// Nothing idleRecord reads changes inside the segment, so its template
// is built once; the per-epoch state (supply, recharge, breaker, class
// energy, predictors, record, event) runs through idleUpkeep and
// commit, the code step runs for an idle epoch.
func (e *Engine) runIdleSegment(k int) {
	tmpl := e.idleRecord(EpochRecord{Offered: e.offeredIdle})
	for i := 0; i < k; i++ {
		rec := tmpl
		rec.Start = e.at
		rec.Supply = e.observedSupply(e.at)
		e.idleUpkeep(rec.Supply, rec.Offered)
		e.commit(&rec)
	}
}

// classStats fills the reused class-stat buffer for the epoch's event
// line; nil for runs without a Config.Fleet. Class goodput is the
// class's aggregate: alive servers × per-alive-server goodput (the
// queueing model is uniform across classes; power is not).
func (e *Engine) classStats() []obs.ClassStat {
	if e.cfg.Fleet == nil {
		return nil
	}
	e.classEv = e.classEv[:0]
	for i := range e.topo.Classes {
		//greensprint:allow(allocfree) appends into the reused per-epoch class buffer; grows to the class count once, then stays flat
		e.classEv = append(e.classEv, obs.ClassStat{
			Name:     e.topo.Classes[i].Name,
			Alive:    e.rack.ClassAlive(i),
			Goodput:  float64(e.rack.ClassAlive(i)) * e.perAliveGoodput,
			EnergyWh: e.classEnergyWh[i],
		})
	}
	return e.classEv
}

// applyChaos applies the epoch's fault and recovery transitions to the
// rack and emits one chaos event per transition ahead of the epoch
// record, stamped with the simulation clock.
func (e *Engine) applyChaos(at time.Time) error {
	actions, err := e.rack.ApplyChaos(e.epochIndex)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if e.cfg.Sink == nil || len(actions) == 0 {
		return nil
	}
	e.timeBuf = at.UTC().AppendFormat(e.timeBuf[:0], time.RFC3339Nano)
	for _, a := range actions {
		e.emit(e.rack.ChaosEvent(a, e.epochIndex, string(e.timeBuf)))
	}
	return nil
}

// Done reports whether the configured horizon has been consumed.
func (e *Engine) Done() bool { return !e.at.Before(e.runEnd) }

// Result aggregates the epochs run so far. It may be called at any
// point; after the final Step it is the same Result Run returns.
func (e *Engine) Result() *Result {
	res := &Result{ClassFleet: e.rack.Knobs, ClassEnergyWh: append([]float64(nil), e.classEnergyWh...)}
	res.Records = append(res.Records, e.records...)
	if e.burstEpochs > 0 {
		res.MeanNormPerf = e.burstPerfSum / float64(e.burstEpochs)
	}
	res.Account = e.rack.Selector.Account()
	res.BatteryCycles = e.rack.Selector.Bank().EquivalentCycles()
	return res
}

// Epoch returns the resolved scheduling-epoch length.
func (e *Engine) Epoch() time.Duration { return e.epoch }

// EpochIndex returns how many epochs have been stepped so far.
func (e *Engine) EpochIndex() int { return e.epochIndex }

// TotalEpochs returns the number of epochs the configured horizon
// spans (the run covers [Supply.Start, burst end + tail)).
func (e *Engine) TotalEpochs() int { return EpochsIn(e.runEnd.Sub(e.cfg.Supply.Start), e.epoch) }

// Rack exposes the modelled rack: its PSS, knob herd, breaker (nil
// unless the run allows overdraw), chaos injector and alive census.
func (e *Engine) Rack() *Rack { return e.rack }

// Topology exposes the run's topology: the generated fleet, or the
// one-class, one-rack topology lifted from the Green config.
func (e *Engine) Topology() *fleet.Topology { return e.topo }

// Run executes the simulation to completion. It is a thin wrapper over
// New/Step/Result whose output is identical to driving the Engine by
// hand; ctx is checked between epochs, so cancellation stops the run
// at an epoch boundary and returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		_, ok, err := e.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return e.Result(), nil
		}
	}
}
