// Package obs is GreenSprint's observability layer: a structured
// per-epoch event log and Prometheus-text-format metrics export, fed
// by hooks on sim.Engine.Step and core.Controller.Step.
//
// The package has two halves:
//
//   - Event / Sink / JSONL — one flat record per scheduling epoch
//     (telemetry in, decision out, power-source split), streamed as
//     JSON Lines. The encoding is deterministic: a fixed-seed replay
//     produces a bit-identical stream across runs and across sharded
//     vs. sequential execution, so event logs double as golden
//     artifacts.
//   - Registry / Collector — counters, gauges and a latency histogram
//     (layered on metrics.Histogram) rendered in the Prometheus text
//     exposition format for GET /metrics.
//
// obs deliberately imports nothing above internal/metrics, so every
// layer of the stack (sim, core, httpapi, the daemons) can depend on
// it without cycles.
package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one scheduling epoch's worth of observability: what the
// Monitor measured, what the controller decided, and how the power
// sources split. Power fields are per green server in watts; Servers
// scales them back to rack level.
type Event struct {
	// Epoch is the zero-based epoch counter.
	Epoch int `json:"epoch"`
	// Time is the epoch's start on the simulation clock (RFC 3339);
	// empty for daemon (wall-clock) epochs, which would not be
	// deterministic.
	Time string `json:"time,omitempty"`
	// EpochSeconds is the scheduling-epoch length.
	EpochSeconds float64 `json:"epoch_seconds"`
	// Strategy is the deciding strategy's name.
	Strategy string `json:"strategy,omitempty"`
	// Servers is the green-server count behind the per-server power
	// fields.
	Servers int `json:"servers,omitempty"`
	// Alive is the green-server count currently up, emitted only
	// while chaos holds servers down (fault-free streams stay
	// byte-identical to pre-chaos ones).
	Alive int `json:"alive,omitempty"`
	// InBurst marks simulated epochs inside the workload burst.
	InBurst bool `json:"in_burst,omitempty"`

	// Telemetry in.
	GreenSupplyW float64 `json:"green_supply_w"`
	OfferedRate  float64 `json:"offered_rate"`
	Goodput      float64 `json:"goodput"`
	LatencySec   float64 `json:"latency_sec"`
	ServerPowerW float64 `json:"server_power_w,omitempty"`

	// Decision out.
	Case            string  `json:"case"`
	Config          string  `json:"config"`
	Sprinting       bool    `json:"sprinting,omitempty"`
	BudgetW         float64 `json:"budget_w,omitempty"`
	PredictedGreenW float64 `json:"predicted_green_w,omitempty"`
	PredictedRate   float64 `json:"predicted_rate,omitempty"`
	DemandW         float64 `json:"demand_w,omitempty"`
	SprintFraction  float64 `json:"sprint_fraction"`

	// Power-source split (per green server, mean over the epoch).
	GreenW   float64 `json:"green_w"`
	BatteryW float64 `json:"battery_w"`
	GridW    float64 `json:"grid_w"`

	// State after the epoch.
	SoC           float64 `json:"soc"`
	BatteryCycles float64 `json:"battery_cycles,omitempty"`
	BreakerStress float64 `json:"breaker_stress,omitempty"`
	QoSViolation  bool    `json:"qos_violation,omitempty"`

	// Chaos transitions. A fault injection or recovery is emitted as
	// its own event line (Chaos "fault" or "recover") ahead of the
	// epoch record it strikes in; epoch records themselves leave these
	// empty, so fault-free streams are byte-identical to pre-chaos
	// ones.
	Chaos       string `json:"chaos,omitempty"`
	ChaosMode   string `json:"chaos_mode,omitempty"`
	ChaosTarget int    `json:"chaos_target,omitempty"`
	ChaosDetail string `json:"chaos_detail,omitempty"`

	// Classes is the per-server-class breakdown of a fleet-scale run,
	// in fleet-spec template order; nil (omitted) for the paper's flat
	// configs, so pre-fleet streams stay byte-identical. The slice may
	// be a buffer reused by the emitter: sinks must consume it during
	// Emit and not retain it.
	Classes []ClassStat `json:"classes,omitempty"`
}

// ClassStat is one server class's slice of a fleet epoch: its alive
// census, aggregate goodput, and cumulative server energy.
type ClassStat struct {
	Name     string  `json:"name"`
	Alive    int     `json:"alive"`
	Goodput  float64 `json:"goodput"`
	EnergyWh float64 `json:"energy_wh"`
}

// Sink receives one Event per scheduling epoch. Implementations must
// be safe for use from a single stepping goroutine; sinks shared
// between concurrent engines need their own locking (JSONL has it).
type Sink interface {
	Emit(Event) error
}

// JSONL streams events as JSON Lines: one object per line, fields in
// declaration order, so a deterministic run yields a byte-identical
// log. It is safe for concurrent use.
//
// Each line is exactly what encoding/json's Encoder would write, with
// its error behaviour: a marshal error writes nothing, and the first
// write error is returned by every later Emit. Emit renders the line
// without reflection into a reused buffer; an event holding a
// non-finite float or a string that needs escaping is marshalled by
// encoding/json itself, so its errors and escaping apply unchanged.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer // guarded by mu
	buf []byte    // guarded by mu
	err error     // guarded by mu; the sticky write error
}

// NewJSONL creates a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w}
}

// Emit writes one event line.
func (j *JSONL) Emit(ev Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	b, ok := appendEvent(j.buf[:0], &ev)
	j.buf = b
	if !ok {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(raw, '\n')
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return err
	}
	return nil
}

// multi fans one event out to several sinks.
type multi []Sink

func (m multi) Emit(ev Event) error {
	for _, s := range m {
		if err := s.Emit(ev); err != nil {
			return err
		}
	}
	return nil
}

// Multi combines sinks; nil entries are dropped. It returns nil when
// nothing remains, so callers can unconditionally assign the result.
func Multi(sinks ...Sink) Sink {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
