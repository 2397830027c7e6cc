// Package core assembles GreenSprint's control plane — the paper's
// Figure 3 architecture. A Controller owns the four components:
//
//	Monitor   — collects per-epoch workload performance (latency,
//	            throughput) and power measurements.
//	Predictor — EWMA forecasts of renewable production and workload
//	            intensity (Eq. 1, α = 0.3).
//	PSS       — selects power sources and manages battery charge
//	            (internal/pss).
//	PMK       — applies the chosen sprinting intensity to the green
//	            servers' knob herd (internal/pmk), and to the host
//	            when one is attached.
//
// The modelled rack — PSS, battery bank, knob herd, breaker, chaos
// injector — is a sim.Rack, the same one sim.Engine drives, so the
// daemon and the simulator share one fault path.
//
// Each scheduling epoch the caller feeds the Monitor's telemetry into
// Controller.Step, which closes the loop: learn from the last epoch,
// predict the next one, pick a strategy decision under the PSS budget,
// allocate power sources, and actuate the knobs. The Controller is
// safe for concurrent use (the HTTP API reads snapshots while the
// epoch loop runs).
package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/pmk"
	"greensprint/internal/predictor"
	"greensprint/internal/profile"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/strategy"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// Options configures a Controller.
type Options struct {
	// Workload is the interactive application being managed.
	Workload workload.Profile
	// Green is the Table I green-provisioning option.
	Green cluster.GreenConfig
	// StrategyName selects the power-management strategy
	// ("Greedy", "Parallel", "Pacing", "Hybrid" or "Normal").
	StrategyName string
	// Epoch is the scheduling-epoch length (sim.DefaultEpoch if
	// zero); a negative length is rejected.
	Epoch time.Duration
	// Host optionally actuates the local machine (e.g. pmk.NewSysfs):
	// every decision's applied setting is applied to it, and Restore
	// re-applies the checkpointed herd setting. When nil the green
	// servers are modelled only, by the rack's knob herd.
	Host pmk.Knob
	// Bank optionally supplies the battery store backing the PSS —
	// e.g. a multi-class battery.ClassBank for a generated fleet;
	// when nil Green.NewBank builds a one-class bank of the green
	// servers' units.
	Bank battery.Store
	// Sink optionally receives one obs.Event per Step: the telemetry
	// that drove the decision, the decision itself and the
	// power-source split (the daemon wires a Prometheus collector and
	// an optional JSONL event log here).
	Sink obs.Sink
	// Chaos optionally injects a resolved failure timeline into the
	// real control loop. Step advances the injector at each epoch
	// boundary under the controller lock: crashed servers shrink the
	// live census behind budget division and knob actuation,
	// stuck-at-source welds the PSS to the utility feed, battery
	// faults degrade the bank, breaker trips force the PDU breaker
	// open, and every transition is emitted as a chaos event on the
	// Sink. Telemetry handed to Step must then be full-fleet,
	// fault-free values — the controller applies solar dropouts and
	// alive-fraction degradation itself, so the Monitor side needs no
	// chaos wiring of its own. The schedule must be resolved for
	// Green.GreenServers servers and the bank's unit count.
	Chaos *chaos.Injector
}

// SinkError wraps an event-sink failure surfaced by Step. The step
// itself succeeded — the decision was applied and recorded — so
// callers that persist per-epoch state should treat it as a lost
// observation, not a failed epoch. Detect it with errors.As.
type SinkError struct{ Err error }

// Error implements error.
func (e *SinkError) Error() string { return "core: event sink: " + e.Err.Error() }

// Unwrap exposes the underlying sink failure.
func (e *SinkError) Unwrap() error { return e.Err }

// Telemetry is one epoch's measurements from the Monitor.
type Telemetry struct {
	// GreenPower is the renewable production observed over the
	// epoch (rack level).
	GreenPower units.Watt
	// OfferedRate is the per-server request arrival rate.
	OfferedRate float64
	// Goodput is the per-server QoS-compliant throughput.
	Goodput float64
	// Latency is the measured SLA-percentile latency in seconds.
	Latency float64
	// ServerPower is the measured mean per-server draw.
	ServerPower units.Watt
}

// Decision is the controller's output for one epoch. Decisions are
// serialized inside controller checkpoints (Last/History), so the json
// tags pin the historical wire names.
type Decision struct {
	// Epoch is the zero-based epoch counter.
	Epoch int `json:"Epoch"`
	// Config is the sprinting intensity applied to the green
	// servers.
	Config server.Config `json:"Config"`
	// Budget is the per-server power budget the PSS committed.
	Budget units.Watt `json:"Budget"`
	// Case is the supply case the PSS selected.
	Case pss.Case `json:"Case"`
	// PredictedGreen and PredictedRate are the Predictor outputs
	// the decision was based on.
	PredictedGreen units.Watt `json:"PredictedGreen"`
	PredictedRate  float64    `json:"PredictedRate"`
	// Demand is the rack-level power demand of the chosen settings.
	Demand units.Watt `json:"Demand"`
	// SprintFraction is the fraction of the epoch the demand was
	// powered (battery exhaustion ends a sprint mid-epoch).
	SprintFraction float64 `json:"SprintFraction"`
}

// Status is a read-only snapshot for monitoring interfaces.
type Status struct {
	Workload     string                `json:"workload"`
	Strategy     string                `json:"strategy"`
	GreenConfig  string                `json:"green_config"`
	Epoch        int                   `json:"epoch"`
	Last         Decision              `json:"last_decision"`
	BatterySoC   float64               `json:"battery_soc"`
	BatteryCycle float64               `json:"battery_cycles"`
	Account      cluster.EnergyAccount `json:"energy_account"`
	Configs      []server.Config       `json:"server_configs"`
	// Chaos state, populated only when the controller runs a chaos
	// injector: the live server census, the PSS stuck-at-source
	// flag and the forced-open breaker flag.
	Alive          int  `json:"alive,omitempty"`
	PSSStuck       bool `json:"pss_stuck,omitempty"`
	BreakerTripped bool `json:"breaker_tripped,omitempty"`
}

// Controller is the GreenSprint control plane.
type Controller struct {
	opts     Options
	table    *profile.Table
	strat    strategy.Strategy
	loadPred *predictor.EWMA
	epoch    time.Duration

	// rack is the modelled rack: the PSS over the bank, a one-class
	// knob herd of Green.GreenServers servers, and — when chaos is on —
	// the injector and the PDU breaker model chaos trips force open.
	rack *sim.Rack

	mu      sync.Mutex
	count   int
	last    Decision
	history []Decision
}

// HistoryLimit bounds the retained decision history.
const HistoryLimit = 288 // one day of 5-minute epochs

// New builds a Controller.
func New(opts Options) (*Controller, error) {
	if err := opts.Workload.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Green.Validate(); err != nil {
		return nil, err
	}
	if opts.Green.GreenServers < 1 {
		return nil, fmt.Errorf("core: green config %q has no green servers", opts.Green.Name)
	}
	epoch := opts.Epoch
	if epoch < 0 {
		return nil, fmt.Errorf("core: negative epoch %v", epoch)
	}
	if epoch == 0 {
		epoch = sim.DefaultEpoch
	}
	tab, err := profile.BuildCached(opts.Workload, profile.DefaultLevels)
	if err != nil {
		return nil, err
	}
	name := opts.StrategyName
	if name == "" {
		name = "Hybrid"
	}
	strat, err := strategy.ByName(name, opts.Workload, tab)
	if err != nil {
		return nil, err
	}
	var bank battery.Store = opts.Bank
	if bank == nil {
		b, err := opts.Green.NewBank()
		if err != nil {
			return nil, err
		}
		bank = b
	}
	var breaker *cluster.Breaker
	if opts.Chaos != nil && opts.Green.GreenServers <= cluster.DefaultServers {
		// Breaker trips need a breaker to trip: model the rack's PDU
		// feed so a forced-open breaker is visible state (stress,
		// tripped flag) instead of a stream-only annotation. A
		// generated fleet spans many PDU legs with no single breaker
		// (as in sim.Engine), so fleet-scale controllers go without
		// and trips ride the event stream only.
		if breaker, err = sim.PDUBreaker(opts.Green); err != nil {
			return nil, err
		}
	}
	// The controller decides one setting for every green server, so
	// its rack is one class. It never overdraws the breaker.
	rack, err := sim.NewRack(sim.RackConfig{
		Counts: []int{opts.Green.GreenServers}, ClassOf: func(int) int { return 0 },
		Tables: []*profile.Table{tab}, Kernels: []*workload.Kernel{workload.SharedKernel(opts.Workload)},
		Bank: bank, Breaker: breaker, Injector: opts.Chaos,
		Strategy: strat, Table: tab, Epoch: epoch,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Controller{
		opts:     opts,
		table:    tab,
		strat:    strat,
		loadPred: predictor.NewEWMA(predictor.DefaultAlpha),
		epoch:    epoch,
		rack:     rack,
	}, nil
}

// Epoch returns the scheduling-epoch length.
func (c *Controller) Epoch() time.Duration { return c.epoch }

// Strategy returns the active strategy's name.
func (c *Controller) Strategy() string { return c.strat.Name() }

// sanitize clamps malformed meter readings: power meters glitch and
// latency probes time out, and a control loop must not let a NaN or a
// negative wattage poison its predictors.
func (t Telemetry) sanitize() Telemetry {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		if math.IsInf(v, 1) {
			return math.MaxFloat64 / 1e10
		}
		return v
	}
	t.GreenPower = units.Watt(clamp(float64(t.GreenPower)))
	t.OfferedRate = clamp(t.OfferedRate)
	t.Goodput = clamp(t.Goodput)
	t.Latency = clamp(t.Latency)
	t.ServerPower = units.Watt(clamp(float64(t.ServerPower)))
	return t
}

// Step closes the control loop for one epoch, using the telemetry
// measured over the epoch that just ended. With a chaos injector the
// epoch's fault and recovery transitions are applied first, under the
// same lock, so the decision below already sees the degraded world. A
// failed event emission returns the valid, already-applied Decision
// alongside a *SinkError; every other error means the step itself
// failed. A step whose host write fails leaves no trace but its chaos
// transitions, so retrying the epoch sees its telemetry once.
func (c *Controller) Step(t Telemetry) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t = t.sanitize()

	// 0. Chaos transitions land at the epoch boundary, before the
	// epoch's physics, each emitted as a chaos event ahead of the
	// epoch record (Time left empty: daemon epochs run on the wall
	// clock). A failed emission does not undo its transition.
	var sinkErr error
	if inj := c.rack.Injector; inj != nil {
		actions, err := c.rack.ApplyChaos(c.count)
		if err != nil {
			return Decision{}, fmt.Errorf("core: %w", err)
		}
		if c.opts.Sink != nil {
			for _, a := range actions {
				if err := c.opts.Sink.Emit(c.rack.ChaosEvent(a, c.count, "")); err != nil && sinkErr == nil {
					sinkErr = err
				}
			}
		}
		// An active inverter dropout zeroes the observed green
		// supply; crashed servers neither serve nor draw, so the
		// per-provisioned-server telemetry means shrink coherently by
		// the alive fraction. Scaling goodput, offered rate and draw
		// together keeps the learner's ratios intact: losses caused
		// by dead servers are never blamed on the chosen config.
		t.GreenPower = units.Watt(float64(t.GreenPower) * inj.SolarFactor())
		if m, n := c.rack.Alive(), c.opts.Green.GreenServers; m < n {
			scale := float64(m) / float64(n)
			t.OfferedRate *= scale
			t.Goodput *= scale
			t.ServerPower = units.Watt(float64(t.ServerPower) * scale)
		}
	}

	// The steps below feed the predictors, let the strategy learn and
	// discharge the bank before the host write; with a host attached,
	// save the state to put back should that write fail.
	var saved *Checkpoint
	if c.opts.Host != nil {
		var err error
		if saved, err = c.checkpoint(); err != nil {
			return Decision{}, err
		}
	}

	// 1. Monitor → Predictor: feed observations.
	c.rack.Selector.ObserveSupply(t.GreenPower)
	c.loadPred.Observe(t.OfferedRate)
	predRate := c.loadPred.Predict()

	var rd sim.Decision
	if c.rack.Alive() == 0 {
		// Every green server is down: nothing serves, nothing sprints,
		// the strategy has nothing to decide. The rack still runs its
		// upkeep, and the log records a zero-demand grid-fallback epoch
		// so numbering stays gap-free.
		c.rack.Upkeep(t.GreenPower)
		rd = sim.Decision{Applied: server.Normal(), PredictedGreen: c.rack.Selector.PredictedSupply()}
		rd.Alloc.Case = pss.CaseGridFallback
	} else {
		// 2. The rack's decision epoch over the controller's plant: the
		// prediction stands in for every rate an oracle would know, and
		// the strategy first learns from the epoch that just finished.
		p := sim.Plant{Green: t.GreenPower, Predicted: predRate, Rate: predRate, NormalRate: predRate,
			Burst: c.table.MaxRate > 0 && predRate > 0.5*c.table.MaxRate}
		if c.count > 0 {
			p.Learn = &strategy.Feedback{Chosen: c.last.Config, Power: t.ServerPower,
				Offered: t.OfferedRate, Goodput: t.Goodput, Latency: t.Latency}
		}
		rd = c.rack.Decide(p)
		if err := c.actuate(rd); err != nil {
			err = fmt.Errorf("core: apply %v: %w", rd.Applied, err)
			if saved != nil {
				err = c.rollBack(err, saved)
			}
			return Decision{}, err
		}
	}
	d := Decision{
		Epoch: c.count, Config: rd.Applied, Case: rd.Alloc.Case, SprintFraction: rd.Alloc.SprintFraction,
		Budget: rd.Budget, Demand: rd.Demand, PredictedGreen: rd.PredictedGreen, PredictedRate: predRate,
	}
	return c.commit(t, d, rd.Alloc, sinkErr)
}

// commit records an applied decision: it advances the epoch count,
// appends to the bounded history and emits the epoch event. sinkErr
// is an earlier emission failure of the same epoch (a chaos event);
// the first failure wins. c.mu must be held.
func (c *Controller) commit(t Telemetry, d Decision, al pss.Allocation, sinkErr error) (Decision, error) {
	c.count++
	c.last = d
	c.history = boundHistory(append(c.history, d))
	if c.opts.Sink != nil {
		// Daemon epochs run on the wall clock: the line carries no Time.
		n := float64(c.opts.Green.GreenServers)
		rec := sim.EpochRecord{
			Supply: t.GreenPower, Offered: t.OfferedRate, Goodput: t.Goodput, Latency: t.Latency,
			Case: d.Case, Config: d.Config, SprintFraction: d.SprintFraction,
			Green: units.Watt(float64(al.Green) / n), Battery: units.Watt(float64(al.Battery) / n),
			Grid: units.Watt(float64(al.Grid) / n), SoC: c.rack.Selector.Bank().SoC(),
		}
		ev := c.rack.EpochEvent(&rec, sim.EpochLine{
			Index: d.Epoch, ServerPower: t.ServerPower, Budget: d.Budget, PredictedGreen: d.PredictedGreen,
			PredictedRate: d.PredictedRate, Demand: d.Demand, Alive: c.rack.Alive(),
		})
		if err := c.opts.Sink.Emit(ev); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if sinkErr != nil {
		// The decision has been applied and recorded; the caller
		// learns the telemetry was not fully observed.
		return d, &SinkError{Err: sinkErr}
	}
	return d, nil
}

// boundHistory keeps the newest HistoryLimit decisions of h.
func boundHistory(h []Decision) []Decision {
	if len(h) > HistoryLimit {
		return h[len(h)-HistoryLimit:]
	}
	return h
}

// actuate writes a decision's applied setting to the host, when one is
// attached, and then actuates the rack's running servers, so a failed
// host write leaves the modelled herd unchanged.
func (c *Controller) actuate(d sim.Decision) error {
	if c.opts.Host != nil {
		if err := c.opts.Host.Apply(d.Applied); err != nil {
			return err
		}
	}
	return c.rack.Apply(d)
}

// Snapshot returns the current status.
func (c *Controller) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Workload:     c.opts.Workload.Name,
		Strategy:     c.strat.Name(),
		GreenConfig:  c.opts.Green.Name,
		Epoch:        c.count,
		Last:         c.last,
		BatterySoC:   c.rack.Selector.Bank().SoC(),
		BatteryCycle: c.rack.Selector.Bank().EquivalentCycles(),
		Account:      c.rack.Selector.Account(),
		Configs:      c.rack.Knobs.Configs(),
	}
	if c.rack.Injector != nil {
		st.Alive = c.rack.Alive()
		st.PSSStuck = c.rack.Selector.Stuck()
		if c.rack.Breaker != nil {
			st.BreakerTripped = c.rack.Breaker.Tripped()
		}
	}
	return st
}

// History returns a copy of the retained decisions.
func (c *Controller) History() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.history))
	copy(out, c.history)
	return out
}

// QTableJSON serializes the Hybrid strategy's learned Q-table under
// the controller lock, so a save never races a concurrent Step's
// Q-update and the caller gets a complete buffer or an error — never
// a truncated stream. ok is false for strategies without a Q-table.
func (c *Controller) QTableJSON() (b []byte, ok bool, err error) {
	h, hok := c.strat.(*strategy.Hybrid)
	if !hok {
		return nil, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf bytes.Buffer
	if err := h.SaveQ(&buf); err != nil {
		return nil, true, err
	}
	return buf.Bytes(), true, nil
}
