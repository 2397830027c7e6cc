package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/pmk"
	"greensprint/internal/predictor"
	"greensprint/internal/pss"
	"greensprint/internal/sim"
)

// CheckpointVersion is the format version written into controller
// checkpoints; Restore rejects any other version. Version 2 added the
// chaos injector's replay state, the forced-breaker thermal state and
// the epoch-length fingerprint; version 3 replaces the per-knob fleet
// with the rack's knob herd (class_fleet). DecodeCheckpoint
// transparently migrates version-1 and version-2 files, and Restore
// migrates their per-knob fleet through pmk.ClassFleet.RestoreFlat.
const CheckpointVersion = 3

// Checkpoint is the serializable state of a Controller between two
// epochs: every stateful layer (battery bank, PSS accounting,
// predictors, knob herd, strategy) plus the decision log. A daemon
// that persists one on shutdown and restores it on startup resumes its
// control loop — including a Hybrid strategy's learned Q-table — as if
// it had never stopped.
type Checkpoint struct {
	Version int `json:"version"`
	// Workload, Strategy and Green fingerprint the configuration the
	// checkpoint was cut from; Restore rejects a mismatch.
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	Green    string `json:"green_config"`
	// EpochSeconds fingerprints the scheduling-epoch length (v2+). A
	// chaos timeline is resolved per epoch index, so resuming with a
	// different epoch would silently stretch or compress the fault
	// schedule; Restore rejects a mismatch. Zero (a migrated v1
	// checkpoint) skips the check.
	EpochSeconds float64 `json:"epoch_seconds,omitempty"`

	Count   int        `json:"epoch_count"`
	Last    Decision   `json:"last_decision"`
	History []Decision `json:"history"`

	Selector pss.SelectorSnapshot `json:"selector"`
	// ClassFleet is the knob herd (v3+). Fleet is the per-knob layout
	// of v1 and v2 files, present only there; Restore migrates it.
	ClassFleet *pmk.ClassFleetSnapshot `json:"class_fleet,omitempty"`
	Fleet      *pmk.FleetSnapshot      `json:"fleet,omitempty"`
	LoadPred   predictor.EWMASnapshot  `json:"load_predictor"`
	// StrategyState is the strategy's opaque state (nil for stateless
	// strategies; the Hybrid's persisted Q-table pins the knob space).
	StrategyState json.RawMessage `json:"strategy_state,omitempty"`
	// Chaos is the fault injector's replay state (v2+); present
	// exactly when the controller runs a chaos schedule. Restore
	// rejects a checkpoint whose chaos-presence disagrees with the
	// controller's. Breaker rides along: the chaos-only PDU breaker's
	// thermal state, so a forced-open breaker resumes tripped.
	Chaos   *chaos.InjectorSnapshot  `json:"chaos,omitempty"`
	Breaker *cluster.BreakerSnapshot `json:"breaker,omitempty"`
}

// Checkpoint captures the controller's state at the current epoch
// boundary. The controller keeps running.
func (c *Controller) Checkpoint() (*Checkpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpoint()
}

// checkpoint captures the controller's state. c.mu must be held.
func (c *Controller) checkpoint() (*Checkpoint, error) {
	raw, err := c.strat.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint strategy: %w", err)
	}
	rack := c.rack.Snapshot()
	return &Checkpoint{
		Version:       CheckpointVersion,
		Workload:      c.opts.Workload.Name,
		Strategy:      c.strat.Name(),
		Green:         c.opts.Green.Name,
		EpochSeconds:  c.epoch.Seconds(),
		Count:         c.count,
		Last:          c.last,
		History:       append([]Decision(nil), c.history...),
		Selector:      rack.Selector,
		ClassFleet:    rack.Knobs,
		LoadPred:      c.loadPred.Snapshot(),
		StrategyState: raw,
		Chaos:         rack.Chaos,
		Breaker:       rack.Breaker,
	}, nil
}

// Restore replaces the controller's state with a checkpoint cut from a
// controller with the same workload, strategy, green configuration and
// epoch length. Component snapshots must fit the controller's layout
// (bank size, fleet size, chaos schedule) and a strategy snapshot must
// match the strategy's knob space, so a stale or foreign checkpoint
// fails loudly. The rack restores exactly as sim.Engine's does, and a
// host actuator is then driven to the restored herd setting. Restore
// is all or nothing: when a layer rejects its snapshot or the host
// write fails, the controller keeps the state it had before the call.
func (c *Controller) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("core: restore: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("core: restore: checkpoint version %d, controller supports %d", cp.Version, CheckpointVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp.Workload != c.opts.Workload.Name {
		return fmt.Errorf("core: restore: checkpoint workload %q, controller runs %q", cp.Workload, c.opts.Workload.Name)
	}
	if cp.Strategy != c.strat.Name() {
		return fmt.Errorf("core: restore: checkpoint strategy %q, controller runs %q", cp.Strategy, c.strat.Name())
	}
	if cp.Green != c.opts.Green.Name {
		return fmt.Errorf("core: restore: checkpoint green config %q, controller runs %q", cp.Green, c.opts.Green.Name)
	}
	if cp.EpochSeconds != 0 && cp.EpochSeconds != c.epoch.Seconds() {
		return fmt.Errorf("core: restore: checkpoint epoch %vs, controller epoch %vs", cp.EpochSeconds, c.epoch.Seconds())
	}
	if cp.Count < 0 {
		return fmt.Errorf("core: restore: negative epoch count %d", cp.Count)
	}
	saved, err := c.checkpoint()
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := c.restoreState(cp); err != nil {
		return c.rollBack(fmt.Errorf("core: restore: %w", err), saved)
	}
	if c.opts.Host != nil {
		if err := c.opts.Host.Apply(c.rack.Knobs.Snapshot().Classes[0].Config); err != nil {
			return c.rollBack(fmt.Errorf("core: restore: host: %w", err), saved)
		}
	}
	return nil
}

// restoreState puts back the state of cp: the rack, the load
// predictor, the strategy and the decision log. It writes nothing to
// the host. c.mu must be held.
func (c *Controller) restoreState(cp *Checkpoint) error {
	err := c.rack.Restore(sim.RackSnapshot{
		Selector: cp.Selector, Breaker: cp.Breaker, Chaos: cp.Chaos, Knobs: cp.ClassFleet, Flat: cp.Fleet,
	})
	if err != nil {
		return err
	}
	if err := c.loadPred.Restore(cp.LoadPred); err != nil {
		return err
	}
	if err := c.strat.RestoreState(cp.StrategyState); err != nil {
		return err
	}
	c.count = cp.Count
	c.last = cp.Last
	c.history = boundHistory(append([]Decision(nil), cp.History...))
	return nil
}

// rollBack puts back saved, the controller's own state from before a
// failed Step or Restore, and returns err, the failure, joined with
// any roll-back failure. c.mu must be held.
func (c *Controller) rollBack(err error, saved *Checkpoint) error {
	if rerr := c.restoreState(saved); rerr != nil {
		err = errors.Join(err, fmt.Errorf("core: roll back: %w", rerr))
	}
	return err
}

// DecodeCheckpoint parses a JSON checkpoint and checks its version.
// Version-1 and version-2 files migrate in place by their version
// stamp. v1 predates chaos: the injector and breaker state are absent
// (a fault-free run) and the epoch fingerprint is zero, which Restore
// treats as unknown; a v2+ file without it fails, since Restore could
// not tell which epoch length its chaos timeline runs at. v2 carries
// the per-knob fleet, which Restore migrates once the injector says
// which servers are down; the next save persists the file as v3. Any
// other version fails loudly.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	switch {
	case cp.Version < 1 || cp.Version > CheckpointVersion:
		return nil, fmt.Errorf("core: decode checkpoint: version %d, supported %d", cp.Version, CheckpointVersion)
	case cp.Version > 1 && cp.EpochSeconds == 0:
		return nil, fmt.Errorf("core: decode checkpoint: version %d file has no epoch_seconds", cp.Version)
	}
	cp.Version = CheckpointVersion
	return &cp, nil
}
