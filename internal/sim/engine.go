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
	"greensprint/internal/pmk"
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
	tab      *profile.Table
	selector *pss.Selector
	breaker  *cluster.Breaker
	loadPred *predictor.EWMA
	n        int

	// injector replays the chaos schedule (nil for fault-free runs:
	// every fault-free code path below is bit-identical to the
	// pre-chaos engine). alive tracks the green servers not currently
	// crashed; it equals n whenever injector is nil.
	injector *chaos.Injector
	alive    int //greensprint:allow(statecov) derived: Restore recounts it from the restored injector's ref-counts (n when chaos is off)

	// Topology state, structure-of-arrays: the paper's rack is a
	// one-class, one-rack topology (fleet.FromGreen), a generated fleet
	// has one class per template. topo is the topology and fingerprint
	// its digest, pinned into checkpoints; knobs is the class-indexed
	// knob herd, classes the per-class runtime (profiling table,
	// kernel, Normal draw) and classAlive the per-class alive census.
	// The per-class observability — classEnergyWh, the cumulative
	// per-class server energy (checkpointed so resumed streams continue
	// the counters), and the classEv event buffer — is kept only for
	// runs with a Config.Fleet. perAliveGoodput is the epoch's
	// per-alive-server goodput before alive-fraction scaling, feeding
	// the class stats.
	topo            *fleet.Topology
	fingerprint     string
	knobs           *pmk.ClassFleet
	classes         []classRT
	classAlive      []int //greensprint:allow(statecov) derived: Restore rebuilds the census via recomputeClassAlive from the injector and topology
	classEnergyWh   []float64
	classEv         []obs.ClassStat //greensprint:allow(statecov) per-epoch scratch: truncated and refilled before every event emission
	perAliveGoodput float64         //greensprint:allow(statecov) per-epoch intermediate: written by every epoch before any read

	// kernel memoizes the per-config queueing constants (max rates,
	// service rates) so the per-epoch hot path runs without bisections;
	// lat caches the last effective latency per knob setting (see
	// latency). Both are derived data rebuilt identically by
	// New/Restore and never checkpointed.
	kernel *workload.Kernel
	lat    []latEntry
	// sprintFrac is the SprintFraction closure handed to the strategy
	// each burst epoch; it reads predGreen and alive instead of
	// capturing fresh values, so it is allocated once instead of once
	// per epoch. Each call runs SustainFraction directly: the strategy
	// probes every candidate power at most once per Decide.
	sprintFrac func(units.Watt) float64
	predGreen  units.Watt //greensprint:allow(statecov) per-epoch intermediate: runBurstEpoch writes it before the strategy can probe sprintFrac
	// timeBuf backs the RFC3339Nano timestamp formatting in event(),
	// reused across epochs.
	timeBuf []byte //greensprint:allow(statecov) formatting arena: overwritten from scratch at each use, carries no run state

	// Batched-stepping state (StepN). While batching is set, emit
	// appends events to evBuf instead of calling the sink per epoch;
	// the buffer is flushed once per StepN call, preserving emission
	// order, so the sink receives the exact byte stream a sequential
	// Step loop would have produced. classArena backs deep copies of
	// the per-event class stats (the classEv buffer is reused across
	// epochs, so buffered events must not alias it). Both are arenas:
	// grown once, truncated to length zero per batch.
	batching   bool            //greensprint:allow(statecov) StepN-scoped: set and cleared within one call; checkpoints are cut between calls
	evBuf      []obs.Event     //greensprint:allow(statecov) batching arena: flushed and truncated before StepN returns
	classArena []obs.ClassStat //greensprint:allow(statecov) batching arena: truncated with evBuf before StepN returns

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
}

// classRT is one server class's engine-side runtime: its census and
// the derived per-class lookup structures (profiling table, queueing
// kernel, Normal-mode draw at the burst rate). Derived data: rebuilt
// identically by New/Restore, never checkpointed.
type classRT struct {
	name        string
	count       int
	tab         *profile.Table
	kernel      *workload.Kernel
	normalPower units.Watt
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
	selector := pss.New(bank)
	n := topo.Servers
	var injector *chaos.Injector
	if cfg.Chaos != nil {
		// The schedule's fault targets were drawn for a concrete
		// topology; replaying it against a different one would strike
		// phantom components. The checks bind the schedule to the
		// topology's server and battery-unit census, and the zone
		// shape must match too (zone outages cascade across zone
		// membership).
		if cfg.Chaos.Servers != n {
			return nil, fmt.Errorf("sim: chaos schedule resolved for %d servers, config has %d",
				cfg.Chaos.Servers, n)
		}
		if cfg.Chaos.Units != bank.Size() {
			return nil, fmt.Errorf("sim: chaos schedule resolved for %d battery units, config has %d",
				cfg.Chaos.Units, bank.Size())
		}
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
		cl, err := cluster.New(cfg.Green)
		if err != nil {
			return nil, err
		}
		breaker = cluster.NewBreaker(cl.GridBudget)
	}

	// One kernel per Engine: the per-config QoS bisections run once at
	// construction, and parallel sweep cells share nothing by design.
	kernel := workload.NewKernel(cfg.Workload)
	baseGoodput := kernel.MaxGoodput(server.Normal())
	burstRate := cfg.Burst.Rate(cfg.Workload)
	burstStart := cfg.Supply.Start.Add(cfg.Lead)
	e := &Engine{
		cfg:      cfg,
		epoch:    epoch,
		tab:      tab,
		selector: selector,
		breaker:  breaker,
		loadPred: predictor.NewEWMA(predictor.DefaultAlpha),
		n:        n,
		injector: injector,
		alive:    n,
		kernel:   kernel,
		lat:      make([]latEntry, server.NumConfigs()),

		baseGoodput:  baseGoodput,
		burstStart:   burstStart,
		burstEnd:     burstStart.Add(cfg.Burst.Duration),
		offeredBurst: burstRate,
		// Outside the burst the rack serves a comfortable background
		// load, as SquareTrace models.
		offeredIdle: 0.6 * baseGoodput,

		at: cfg.Supply.Start,

		topo:        topo,
		fingerprint: topo.Fingerprint(),
		knobs:       pmk.NewClassFleet(topo.ClassCounts(), topo.ClassOf),
		classes:     make([]classRT, len(topo.Classes)),
		classAlive:  make([]int, len(topo.Classes)),
	}
	if cfg.Fleet != nil {
		e.classEnergyWh = make([]float64, len(topo.Classes))
	}
	for i, c := range topo.Classes {
		prof := cfg.Workload
		if c.PeakPower > 0 {
			prof.PeakPower = c.PeakPower
		}
		// The reference class (no power override) reuses the engine's
		// own table and kernel — including a caller-built cfg.Table —
		// so the paper's rack computes on exactly those structures.
		// Overridden classes share process-wide caches keyed by
		// profile.
		ctab, ck, normalPower := tab, kernel, kernel.LoadPower(server.Normal(), burstRate)
		if prof != cfg.Workload {
			if err := prof.Validate(); err != nil {
				return nil, fmt.Errorf("sim: fleet class %q: %w", c.Name, err)
			}
			if ctab, err = profile.BuildCached(prof, profile.DefaultLevels); err != nil {
				return nil, fmt.Errorf("sim: fleet class %q: %w", c.Name, err)
			}
			ck = workload.SharedKernel(prof)
			normalPower = ck.LoadPower(server.Normal(), cfg.Burst.Rate(prof))
		}
		e.classes[i] = classRT{
			name:        c.Name,
			count:       c.Servers,
			tab:         ctab,
			kernel:      ck,
			normalPower: normalPower,
		}
		e.classAlive[i] = c.Servers
	}
	e.runEnd = e.burstEnd.Add(cfg.Tail)
	// The horizon is fixed at construction, so the record slice can be
	// sized once instead of growing by doubling across the run.
	e.records = make([]EpochRecord, 0, e.TotalEpochs())
	e.sprintFrac = func(perServer units.Watt) float64 {
		// Demand scales with the servers actually running (alive == n
		// for fault-free runs, so this stays bit-identical to the
		// pre-chaos closure).
		return e.selector.SustainFraction(units.Watt(float64(perServer)*float64(e.alive)), e.predGreen, e.epoch)
	}

	// Prime the supply predictor with the pre-run observation so the
	// first epoch has a sensible forecast (the paper's predictor has
	// been running continuously before any burst).
	selector.ObserveSupply(units.Watt(cfg.Supply.At(cfg.Supply.Start)))
	// Workload predictor (the paper's L_pre EWMA); only used when an
	// offered-rate trace is replayed.
	if cfg.Offered != nil {
		e.loadPred.Observe(meanWindow(cfg.Offered, cfg.Supply.Start, epoch))
	}
	return e, nil
}

// Step advances the simulation by one scheduling epoch. It returns the
// epoch's record and true while the run is in progress, and a zero
// record and false once the configured horizon has been consumed.
func (e *Engine) Step() (EpochRecord, bool, error) { return e.step() }

// step is the shared single-epoch path behind Step and StepN. The only
// difference under StepN is that emit buffers events instead of
// handing them to the sink immediately.
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
	greenObserved := units.Watt(meanWindow(e.cfg.Supply, at, e.epoch))
	if e.injector != nil {
		// Fault and recovery transitions land at the epoch boundary,
		// before the epoch's physics; an active inverter dropout then
		// zeroes the observed green supply.
		if err := e.applyChaos(e.epochIndex, at); err != nil {
			return EpochRecord{}, true, err
		}
		greenObserved = units.Watt(float64(greenObserved) * e.injector.SolarFactor())
	}

	var rec EpochRecord
	rec.Start = at
	rec.InBurst = inBurst
	rec.Supply = greenObserved
	rec.Offered = offered

	switch {
	case e.alive == 0:
		// Every green server is down (a full zone outage, or worse):
		// nothing serves, nothing sprints, the strategy has nothing to
		// decide. Surviving infrastructure still runs — batteries bank
		// whatever green output remains — and the breaker cools.
		rec = e.runOutageEpoch(rec, greenObserved)
		if e.breaker != nil {
			e.breaker.Step(0, e.epoch)
		}
	case inBurst:
		rec = e.runBurstEpoch(rec, greenObserved, offered, predicted, at)
	default:
		rec = e.runIdleEpoch(rec, greenObserved, offered)
		if e.breaker != nil {
			// Non-burst epochs stay within the budget and cool the
			// breaker.
			e.breaker.Step(0, e.epoch)
		}
	}

	if e.baseGoodput > 0 {
		rec.NormPerf = rec.Goodput / e.baseGoodput
	}
	rec.SoC = e.selector.Bank().SoC()
	e.selector.ObserveSupply(greenObserved)
	e.loadPred.Observe(offered)
	//greensprint:allow(allocfree) the per-epoch record log is the simulation's product; growth is amortized doubling
	e.records = append(e.records, rec)
	if inBurst {
		e.burstPerfSum += rec.NormPerf
		e.burstEpochs++
	}
	index := e.epochIndex
	e.at = at.Add(e.epoch)
	e.epochIndex++
	if e.cfg.Sink != nil {
		if err := e.emit(e.event(index, rec)); err != nil {
			return rec, true, fmt.Errorf("sim: event sink: %w", err)
		}
	}
	return rec, true, nil
}

// emit hands one event to the sink, or — under StepN — appends it to
// the batch buffer for the end-of-batch flush. Buffered events have
// their class stats copied into the arena because the classEv buffer
// they point at is overwritten every epoch. Buffering never fails;
// sink errors surface from flushEvents.
func (e *Engine) emit(ev obs.Event) error {
	if !e.batching {
		return e.cfg.Sink.Emit(ev)
	}
	e.bufferEvent(ev)
	return nil
}

// bufferEvent appends one event to the batch buffer. Only valid while
// batching: the fast segment calls it directly because under StepN the
// sink is never touched before the flush.
func (e *Engine) bufferEvent(ev obs.Event) {
	if n := len(ev.Classes); n > 0 {
		start := len(e.classArena)
		//greensprint:allow(allocfree) arena growth is amortized: the backing array is reused across batches and grows to classes x batch once
		e.classArena = append(e.classArena, ev.Classes...)
		ev.Classes = e.classArena[start : start+n : start+n]
	}
	//greensprint:allow(allocfree) arena growth is amortized: the event buffer is reused across batches and grows to the batch size once
	e.evBuf = append(e.evBuf, ev)
}

// flushEvents drains the batch buffer into the sink in emission order.
// The first sink error aborts the flush, mirroring Step's fail-fast
// contract; already-emitted events stay emitted either way.
func (e *Engine) flushEvents() error {
	sink := e.cfg.Sink
	for i := range e.evBuf {
		if err := sink.Emit(e.evBuf[i]); err != nil {
			e.evBuf = e.evBuf[:0]
			e.classArena = e.classArena[:0]
			return fmt.Errorf("sim: event sink: %w", err)
		}
	}
	e.evBuf = e.evBuf[:0]
	e.classArena = e.classArena[:0]
	return nil
}

// StepN advances the simulation by up to n scheduling epochs in one
// call and returns how many epochs actually ran (fewer than n only
// when the horizon is consumed first or an epoch fails). It is
// byte-identical to n individual Step calls — same records, same event
// stream, same checkpoint at every batch boundary — while hoisting
// per-epoch overheads out of the loop:
//
//   - events are buffered and flushed to the sink once per batch, in
//     emission order (chaos transitions interleaved exactly as Step
//     emits them);
//   - contiguous idle (non-burst, alive, square-burst) epochs run
//     through a fast segment that applies the Normal knob setting and
//     resolves the constant goodput/latency/grid figures once per
//     segment instead of once per epoch, keeping only the genuinely
//     state-bearing work per epoch (battery recharge, EWMA
//     observations, breaker cooling, record and event emission);
//   - segments are clipped at the burst window, the horizon, and every
//     fault or recovery epoch in the resolved chaos timeline, so the
//     skipped chaos Advance calls are provably empty and the resilience
//     goldens hold bit-for-bit.
//
// A sink failure surfaces after the batch (first failed emission,
// flush aborted there), wrapped exactly like Step's sink error; the
// epochs themselves have still run.
func (e *Engine) StepN(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	batch := e.cfg.Sink != nil
	e.batching = batch
	if batch && e.evBuf == nil {
		sz := e.TotalEpochs() - e.epochIndex
		if sz > n {
			sz = n
		}
		if sz > 0 {
			//greensprint:allow(allocfree) one-time arena presize; reused (truncated, not freed) across every later batch
			e.evBuf = make([]obs.Event, 0, sz)
		}
	}
	ran := 0
	var stepErr error
	for ran < n && e.at.Before(e.runEnd) {
		if k := e.idleSegmentLen(n - ran); k > 0 {
			e.runIdleSegment(k)
			ran += k
			continue
		}
		_, ok, err := e.step()
		if err != nil {
			// step fails before consuming the epoch (chaos apply) or,
			// when not batching, after it; under batching the sink path
			// cannot fail here, so ran stays accurate either way.
			stepErr = err
			break
		}
		if !ok {
			break
		}
		ran++
	}
	if batch {
		e.batching = false
		if err := e.flushEvents(); err != nil && stepErr == nil {
			stepErr = err
		}
	}
	return ran, stepErr
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
	if e.cfg.Offered != nil || e.alive == 0 {
		return 0
	}
	at := e.at
	var k int
	switch {
	case at.Before(e.burstStart):
		k = epochsUntil(e.burstStart.Sub(at), e.epoch)
	case !at.Before(e.burstEnd):
		k = epochsUntil(e.runEnd.Sub(at), e.epoch)
	default:
		return 0
	}
	if k > limit {
		k = limit
	}
	if e.injector != nil {
		if next := e.injector.NextTransition(); next >= 0 {
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

// epochsUntil counts the epoch starts that land strictly before the
// boundary d away: ceil(d/epoch) — the last counted epoch may extend
// past the boundary, matching TotalEpochs' rounding.
func epochsUntil(d, epoch time.Duration) int {
	if d <= 0 {
		return 0
	}
	n := int(d / epoch)
	if time.Duration(n)*epoch < d {
		n++
	}
	return n
}

// runIdleSegment executes k contiguous idle epochs with the
// segment-invariant work hoisted out of the loop. Every floating-point
// value it produces is computed by the exact expressions runIdleEpoch
// and step use — hoisting only ever reuses a value that per-epoch code
// would have recomputed identically (knob re-application is a counted
// no-op, kernel lookups are pure, chaos transitions are clipped out by
// idleSegmentLen) — so records, events and checkpoints stay
// bit-identical to the per-epoch path.
func (e *Engine) runIdleSegment(k int) {
	selector, epoch := e.selector, e.epoch
	offered := e.offeredIdle
	// Hoisted: re-applying Normal to a fleet already at Normal is a
	// no-op (knob herds count transitions, not applications), so one
	// application replaces k.
	e.applyFleet(server.Normal())
	var tmpl EpochRecord
	tmpl.Offered = offered
	tmpl.Case = pss.CaseGridFallback
	tmpl.Config = server.Normal()
	tmpl.Goodput = e.kernel.Goodput(server.Normal(), offered)
	tmpl.Latency = e.latency(server.Normal(), offered)
	tmpl.Grid = e.kernel.LoadPower(server.Normal(), offered)
	if m := e.alive; m != e.n {
		scale := float64(m) / float64(e.n)
		tmpl.Goodput *= scale
		tmpl.Grid = units.Watt(float64(tmpl.Grid) * scale)
	}
	e.perAliveGoodput = e.kernel.Goodput(server.Normal(), offered)
	if len(e.classes) > 1 {
		tmpl.Grid = e.classNormalGrid(offered)
	}
	if e.baseGoodput > 0 {
		tmpl.NormPerf = tmpl.Goodput / e.baseGoodput
	}
	solar := 1.0
	if e.injector != nil {
		solar = e.injector.SolarFactor()
	}
	sink := e.cfg.Sink
	for i := 0; i < k; i++ {
		at := e.at
		greenObserved := units.Watt(meanWindow(e.cfg.Supply, at, epoch))
		if e.injector != nil {
			greenObserved = units.Watt(float64(greenObserved) * solar)
		}
		rec := tmpl
		rec.Start = at
		rec.Supply = greenObserved
		selector.RechargeFromGreen(greenObserved, epoch)
		if selector.NeedsRecharge() {
			selector.RechargeFromGrid(GridRechargePower, epoch)
		}
		if e.breaker != nil {
			e.breaker.Step(0, epoch)
		}
		rec.SoC = selector.Bank().SoC()
		selector.ObserveSupply(greenObserved)
		e.loadPred.Observe(offered)
		// Cumulative per-class energy must accumulate per epoch
		// (x+d+d is not 2d+x in floating point); the expression is the
		// same one the per-epoch path runs.
		e.accumulateClassEnergy(server.Normal(), 0, offered)
		//greensprint:allow(allocfree) the per-epoch record log is the simulation's product; growth is amortized doubling
		e.records = append(e.records, rec)
		index := e.epochIndex
		e.at = at.Add(epoch)
		e.epochIndex++
		if sink != nil {
			e.bufferEvent(e.event(index, rec))
		}
	}
}

// event flattens one epoch record into the observability schema. The
// record's per-server power split and the simulation clock make the
// stream deterministic for a fixed-seed replay.
func (e *Engine) event(index int, rec EpochRecord) obs.Event {
	// AppendFormat into a reused buffer: same bytes as Format, one
	// string allocation instead of Format's intermediate buffer.
	e.timeBuf = rec.Start.UTC().AppendFormat(e.timeBuf[:0], time.RFC3339Nano)
	ev := obs.Event{
		Epoch:          index,
		Time:           string(e.timeBuf),
		EpochSeconds:   e.epoch.Seconds(),
		Strategy:       e.cfg.Strategy.Name(),
		Servers:        e.n,
		InBurst:        rec.InBurst,
		GreenSupplyW:   float64(rec.Supply),
		OfferedRate:    rec.Offered,
		Goodput:        rec.Goodput,
		LatencySec:     rec.Latency,
		Case:           rec.Case.String(),
		Config:         rec.Config.String(),
		Sprinting:      rec.Config.IsSprinting(),
		SprintFraction: rec.SprintFraction,
		GreenW:         float64(rec.Green),
		BatteryW:       float64(rec.Battery),
		GridW:          float64(rec.Grid),
		SoC:            rec.SoC,
		BatteryCycles:  e.selector.Bank().EquivalentCycles(),
		QoSViolation:   e.cfg.Workload.Deadline > 0 && rec.Latency > e.cfg.Workload.Deadline,
	}
	if e.breaker != nil {
		ev.BreakerStress = e.breaker.Stress()
	}
	if e.cfg.Fleet != nil {
		// The buffer is reused across epochs; sinks consume the event
		// synchronously during Emit. Class goodput is the class's
		// aggregate (alive servers × per-alive-server goodput — the
		// queueing model is uniform across classes; power is not).
		e.classEv = e.classEv[:0]
		for i := range e.classes {
			//greensprint:allow(allocfree) appends into the reused per-epoch class buffer; grows to the class count once, then stays flat
			e.classEv = append(e.classEv, obs.ClassStat{
				Name:     e.classes[i].name,
				Alive:    e.classAlive[i],
				Goodput:  float64(e.classAlive[i]) * e.perAliveGoodput,
				EnergyWh: e.classEnergyWh[i],
			})
		}
		ev.Classes = e.classEv
	}
	return ev
}

// applyChaos advances the injector to the epoch boundary, applies each
// due transition to the affected component, and emits one obs.Event
// per transition ahead of the epoch record. Aggregate state (alive
// servers, stuck switch, solar factor) comes from the injector's
// ref-counts, so overlapping faults on one component compose instead
// of corrupting each other.
func (e *Engine) applyChaos(index int, at time.Time) error {
	actions := e.injector.Advance(index)
	for _, a := range actions {
		f := a.Fault
		switch f.Mode {
		case chaos.ServerCrash:
			if !a.Recovered {
				// The crashed server drops its sprint; when it
				// restarts it boots into Normal mode, which its knob
				// already records from here on. The Apply detaches the
				// server from its class herd, which is what lets
				// ApplyAlive keep skipping it wholesale.
				e.knobs.Apply(f.Target, server.Normal())
			}
		case chaos.BatteryDegrade:
			if err := e.selector.Bank().DegradeUnit(f.Target, f.Factor, f.Resist); err != nil {
				return fmt.Errorf("sim: chaos: %w", err)
			}
		case chaos.BreakerTrip:
			// Without a breaker model (AllowBreakerOverdraw off) the
			// trip is recorded in the stream but has no electrical
			// effect: the rack never overdraws through it anyway.
			if e.breaker != nil {
				if a.Recovered {
					e.breaker.Reset() // technician reclose
				} else {
					e.breaker.ForceTrip()
				}
			}
		}
		// PSSStuck and SolarDropout act purely through the injector's
		// ref-counts read below; ZoneOutage is a marker whose cascade
		// constituents carry the component effects.
		if e.cfg.Sink != nil {
			if err := e.emit(e.chaosEvent(index, at, a)); err != nil {
				return fmt.Errorf("sim: event sink: %w", err)
			}
		}
	}
	e.alive = e.injector.AliveServers()
	e.selector.SetStuck(e.injector.Stuck())
	if len(actions) > 0 {
		e.recomputeClassAlive()
	}
	return nil
}

// recomputeClassAlive rebuilds the per-class alive census from the
// injector's ref-counts. It runs only on transition epochs (and after
// a checkpoint restore), so the O(servers) scan never rides the
// steady-state hot path.
func (e *Engine) recomputeClassAlive() {
	for i := range e.classAlive {
		e.classAlive[i] = e.classes[i].count
	}
	for s := 0; s < e.n; s++ {
		if e.injector.ServerDown(s) {
			e.classAlive[e.topo.ClassOf(s)]--
		}
	}
}

// chaosEvent renders one fault/recovery transition for the event
// stream, stamped with the epoch it strikes in.
func (e *Engine) chaosEvent(index int, at time.Time, a chaos.Action) obs.Event {
	e.timeBuf = at.UTC().AppendFormat(e.timeBuf[:0], time.RFC3339Nano)
	kind := "fault"
	if a.Recovered {
		kind = "recover"
	}
	return obs.Event{
		Epoch:        index,
		Time:         string(e.timeBuf),
		EpochSeconds: e.epoch.Seconds(),
		Strategy:     e.cfg.Strategy.Name(),
		Servers:      e.n,
		Chaos:        kind,
		ChaosMode:    a.Fault.Mode.String(),
		ChaosTarget:  a.Fault.Target,
		ChaosDetail:  a.Fault.String(),
	}
}

// applyFleet applies a config to the running servers: all of them on a
// fault-free engine, only the alive ones under chaos (a powered-off
// server has nothing to actuate, and phantom transitions would corrupt
// the actuation accounting).
func (e *Engine) applyFleet(c server.Config) {
	if e.injector != nil {
		e.knobs.ApplyAlive(c, e.injector.ServerDown)
		return
	}
	e.knobs.ApplyAll(c)
}

// Done reports whether the configured horizon has been consumed.
func (e *Engine) Done() bool { return !e.at.Before(e.runEnd) }

// Result aggregates the epochs run so far. It may be called at any
// point; after the final Step it is the same Result Run returns.
func (e *Engine) Result() *Result {
	res := &Result{ClassFleet: e.knobs, ClassEnergyWh: append([]float64(nil), e.classEnergyWh...)}
	res.Records = append(res.Records, e.records...)
	if e.burstEpochs > 0 {
		res.MeanNormPerf = e.burstPerfSum / float64(e.burstEpochs)
	}
	res.Account = e.selector.Account()
	res.BatteryCycles = e.selector.Bank().EquivalentCycles()
	return res
}

// Epoch returns the resolved scheduling-epoch length.
func (e *Engine) Epoch() time.Duration { return e.epoch }

// EpochIndex returns how many epochs have been stepped so far.
func (e *Engine) EpochIndex() int { return e.epochIndex }

// TotalEpochs returns the number of epochs the configured horizon
// spans (the run covers [Supply.Start, burst end + tail)).
func (e *Engine) TotalEpochs() int {
	d := e.runEnd.Sub(e.cfg.Supply.Start)
	if d <= 0 {
		return 0
	}
	n := int(d / e.epoch)
	if time.Duration(n)*e.epoch < d {
		n++
	}
	return n
}

// Breaker exposes the PDU breaker model, or nil when the run does not
// allow overdraw. Tests assert on its stress accounting.
func (e *Engine) Breaker() *cluster.Breaker { return e.breaker }

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
