package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"greensprint/internal/atomicfile"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/pmk"
	"greensprint/internal/predictor"
	"greensprint/internal/pss"
	"greensprint/internal/server"
)

// CheckpointVersion is the format version written into every
// Checkpoint; Restore rejects any other version so stale files fail
// loudly instead of silently corrupting a resumed run. Version 2 added
// the StrategyName fingerprint; version 3 added the chaos injector's
// replay state (plus per-component degradation fields that older
// decoders would silently drop); version 4 adds the topology state —
// topology fingerprint, class-indexed knob herd, grouped battery
// snapshot, per-class energy counters. Version-4 files cut before the
// paper's rack ran as a one-class fleet carry the flat layout instead
// (per-knob fleet, per-unit battery bank); Restore migrates them (see
// classFleetFromKnobs and battery.ClassBank.Restore).
// DecodeCheckpoint transparently migrates version-1 through version-3
// files (see migrateV1/migrateV2/migrateV3).
const CheckpointVersion = 4

// Checkpoint is the complete serializable state of an Engine between
// two epochs: every stateful layer's snapshot (battery bank, PSS,
// breaker, knob fleet, predictors, strategy) plus the epoch schedule
// position and the records produced so far. A checkpoint restored into
// a fresh Engine built from the same Config continues bit-identically
// to the uninterrupted run; it round-trips through JSON.
type Checkpoint struct {
	Version int `json:"version"`
	// Epoch and SupplyStart fingerprint the schedule the checkpoint
	// was cut from; Restore rejects a mismatch.
	Epoch       time.Duration `json:"epoch"`
	SupplyStart time.Time     `json:"supply_start"`
	// EpochIndex is the number of epochs already run; the resumed
	// engine continues at SupplyStart + EpochIndex·Epoch.
	EpochIndex int `json:"epoch_index"`
	// StrategyName fingerprints the strategy the checkpoint was cut
	// from (v2+). Restore rejects a mismatch so a Hybrid Q-table is
	// never fed into, say, a Parallel engine. Empty for migrated v1
	// checkpoints, which predate the field and skip the check.
	StrategyName string `json:"strategy_name,omitempty"`

	Selector pss.SelectorSnapshot `json:"selector"`
	// Fleet is the per-knob fleet snapshot of the flat layout, present
	// only in checkpoints cut before the paper's rack ran as a
	// one-class fleet; Restore migrates it into the knob herd.
	Fleet    *pmk.FleetSnapshot       `json:"fleet,omitempty"`
	Breaker  *cluster.BreakerSnapshot `json:"breaker,omitempty"`
	LoadPred predictor.EWMASnapshot   `json:"load_predictor"`
	// Strategy is the strategy's opaque state (nil for stateless
	// strategies; the rl-backed Hybrid persists its Q-table, which
	// pins the knob space).
	Strategy json.RawMessage `json:"strategy,omitempty"`
	// Chaos is the fault injector's replay state (v3+); present
	// exactly when the run has a chaos schedule. Restore rejects a
	// checkpoint whose chaos-presence disagrees with the engine's.
	Chaos *chaos.InjectorSnapshot `json:"chaos,omitempty"`

	// Topology state (v4+). FleetFingerprint pins the topology the
	// checkpoint was cut from — a resumed engine regenerates it and
	// refuses a mismatch. ClassFleet carries the class-indexed knob
	// herd, and ClassEnergyWh the cumulative per-class energy counters
	// behind the event stream's class stats (present exactly when the
	// run has a Config.Fleet). Flat-layout checkpoints carry neither
	// fingerprint nor ClassFleet, only the per-knob Fleet.
	FleetFingerprint string                  `json:"fleet_fingerprint,omitempty"`
	ClassFleet       *pmk.ClassFleetSnapshot `json:"class_fleet,omitempty"`
	ClassEnergyWh    []float64               `json:"class_energy_wh,omitempty"`

	Records      []EpochRecord `json:"records"`
	BurstPerfSum float64       `json:"burst_perf_sum"`
	BurstEpochs  int           `json:"burst_epochs"`
}

// Checkpoint captures the engine's state at the current epoch
// boundary. The engine is not perturbed and may keep stepping.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	stratRaw, err := e.cfg.Strategy.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint strategy: %w", err)
	}
	knobs := e.knobs.Snapshot()
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		Epoch:        e.epoch,
		SupplyStart:  e.cfg.Supply.Start,
		EpochIndex:   e.epochIndex,
		StrategyName: e.cfg.Strategy.Name(),
		Selector:     e.selector.Snapshot(),
		LoadPred:     e.loadPred.Snapshot(),
		Strategy:     stratRaw,
		Records:      append([]EpochRecord(nil), e.records...),
		BurstPerfSum: e.burstPerfSum,
		BurstEpochs:  e.burstEpochs,

		FleetFingerprint: e.fingerprint,
		ClassFleet:       &knobs,
		ClassEnergyWh:    append([]float64(nil), e.classEnergyWh...),
	}
	if e.breaker != nil {
		s := e.breaker.Snapshot()
		cp.Breaker = &s
	}
	if e.injector != nil {
		s := e.injector.Snapshot()
		cp.Chaos = &s
	}
	return cp, nil
}

// Restore replaces the engine's state with a checkpoint cut from an
// engine built over the same Config. The checkpoint's version and
// schedule fingerprint must match, component snapshots must fit the
// engine's layout (bank size, fleet size, breaker presence), and a
// strategy snapshot must match the strategy's knob space.
func (e *Engine) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("sim: restore: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("sim: restore: checkpoint version %d, engine supports %d", cp.Version, CheckpointVersion)
	}
	if cp.Epoch != e.epoch {
		return fmt.Errorf("sim: restore: checkpoint epoch %v, engine epoch %v", cp.Epoch, e.epoch)
	}
	if !cp.SupplyStart.Equal(e.cfg.Supply.Start) {
		return fmt.Errorf("sim: restore: checkpoint starts %v, engine starts %v", cp.SupplyStart, e.cfg.Supply.Start)
	}
	if cp.StrategyName != "" && cp.StrategyName != e.cfg.Strategy.Name() {
		return fmt.Errorf("sim: restore: checkpoint from strategy %q, engine runs %q", cp.StrategyName, e.cfg.Strategy.Name())
	}
	if cp.EpochIndex < 0 || cp.EpochIndex > e.TotalEpochs() {
		return fmt.Errorf("sim: restore: epoch index %d outside run of %d epochs", cp.EpochIndex, e.TotalEpochs())
	}
	if len(cp.Records) != cp.EpochIndex {
		return fmt.Errorf("sim: restore: %d records for %d epochs", len(cp.Records), cp.EpochIndex)
	}
	if (cp.Breaker == nil) != (e.breaker == nil) {
		return fmt.Errorf("sim: restore: checkpoint and engine disagree on breaker overdraw")
	}
	if (cp.Chaos == nil) != (e.injector == nil) {
		return fmt.Errorf("sim: restore: checkpoint and engine disagree on chaos schedule")
	}
	switch {
	case cp.ClassFleet == nil && cp.Fleet == nil:
		return fmt.Errorf("sim: restore: checkpoint carries no knob fleet")
	case cp.ClassFleet != nil && cp.FleetFingerprint != e.fingerprint:
		return fmt.Errorf("sim: restore: checkpoint fleet fingerprint %.12s… does not match generated topology %.12s…",
			cp.FleetFingerprint, e.fingerprint)
	case len(cp.ClassEnergyWh) != len(e.classEnergyWh):
		return fmt.Errorf("sim: restore: %d class energy counters for %d classes",
			len(cp.ClassEnergyWh), len(e.classEnergyWh))
	}
	if err := e.selector.Restore(cp.Selector); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if e.breaker != nil {
		if err := e.breaker.Restore(*cp.Breaker); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	}
	if err := e.loadPred.Restore(cp.LoadPred); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := e.cfg.Strategy.RestoreState(cp.Strategy); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if e.injector != nil {
		if err := e.injector.Restore(*cp.Chaos); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
		e.alive = e.injector.AliveServers()
		e.selector.SetStuck(e.injector.Stuck())
		e.recomputeClassAlive()
	}
	// The knob herd migrates after the injector: a flat-layout fleet
	// detaches the servers the restored injector reports down.
	knobs := cp.ClassFleet
	if knobs == nil {
		var err error
		if knobs, err = e.classFleetFromKnobs(*cp.Fleet); err != nil {
			return err
		}
	}
	if err := e.knobs.Restore(*knobs); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	copy(e.classEnergyWh, cp.ClassEnergyWh)
	e.records = append(make([]EpochRecord, 0, e.TotalEpochs()), cp.Records...)
	e.burstPerfSum = cp.BurstPerfSum
	e.burstEpochs = cp.BurstEpochs
	e.epochIndex = cp.EpochIndex
	e.at = e.cfg.Supply.Start.Add(time.Duration(cp.EpochIndex) * e.epoch)
	return nil
}

// Encode serializes the checkpoint as JSON.
func (c *Checkpoint) Encode() ([]byte, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	return b, nil
}

// DecodeCheckpoint parses a JSON checkpoint and checks its version.
// Version-1 through version-3 checkpoints are migrated in place (see
// migrateV1/migrateV2/migrateV3) so files cut before the newer fields
// still restore cleanly; any other version mismatch fails loudly.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	if cp.Version == 1 {
		migrateV1(&cp)
	}
	if cp.Version == 2 {
		migrateV2(&cp)
	}
	if cp.Version == 3 {
		migrateV3(&cp)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("sim: decode checkpoint: version %d, supported %d", cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// migrateV1 lifts a version-1 checkpoint to version 2. The v1 layout
// is a strict subset of v2 — it lacks only the StrategyName
// fingerprint — so migration stamps the new version and leaves the
// name empty, which Restore treats as "unknown, skip the check".
// migrateV2 then carries the result the rest of the way.
func migrateV1(cp *Checkpoint) {
	cp.Version = 2
	cp.StrategyName = ""
}

// migrateV2 lifts a version-2 checkpoint to version 3. The v2 layout
// is a strict subset of v3: it predates chaos, so the injector state
// is absent (a fault-free run, which Restore accepts for engines
// without a chaos schedule) and every battery unit decodes with the
// degradation fields at their undegraded defaults. Migration is
// therefore just the version stamp; the next Checkpoint/WriteFile
// cycle persists the file as full v3.
func migrateV2(cp *Checkpoint) {
	cp.Version = 3
}

// migrateV3 lifts a version-3 checkpoint to version 4. The v3 layout
// is a strict subset of v4's flat layout: it predates generated
// fleets, so the fleet fingerprint, class-fleet snapshot and per-class
// energy counters are all absent, and Restore migrates its per-knob
// fleet and per-unit bank like any flat-layout checkpoint. Migration
// is therefore just the version stamp.
func migrateV3(cp *Checkpoint) {
	cp.Version = CheckpointVersion
}

// WriteFile atomically persists the checkpoint through the shared
// tmp+rename writer, so a crash mid-write never leaves a truncated
// checkpoint behind.
func (c *Checkpoint) WriteFile(path string) error {
	b, err := c.Encode()
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("sim: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile loads and version-checks a checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: read checkpoint: %w", err)
	}
	return DecodeCheckpoint(b)
}

// classFleetFromKnobs migrates a flat-layout per-knob fleet snapshot
// into the engine's knob herd. Each class's herd takes the setting of
// its first server the restored injector reports up; servers reported
// down, and knobs whose setting differs from their herd's, are
// detached with their own state. Herd members' transition counts are
// summed into the herd, so the fleet total is conserved.
func (e *Engine) classFleetFromKnobs(s pmk.FleetSnapshot) (*pmk.ClassFleetSnapshot, error) {
	if len(s.Knobs) != e.n {
		return nil, fmt.Errorf("sim: restore: snapshot has %d knobs, fleet has %d", len(s.Knobs), e.n)
	}
	down := func(i int) bool { return e.injector != nil && e.injector.ServerDown(i) }
	out := &pmk.ClassFleetSnapshot{Classes: make([]pmk.ClassKnobSnapshot, len(e.classes))}
	seen := make([]bool, len(e.classes))
	for i := range out.Classes {
		out.Classes[i].Config = server.Normal()
	}
	for i, k := range s.Knobs {
		if c := e.topo.ClassOf(i); !seen[c] && !down(i) {
			out.Classes[c].Config, seen[c] = k.Config, true
		}
	}
	for i, k := range s.Knobs {
		if k.Transitions < 0 {
			return nil, fmt.Errorf("sim: restore: knob %d has negative transition count %d", i, k.Transitions)
		}
		c := e.topo.ClassOf(i)
		herd := &out.Classes[c]
		if down(i) || k.Config != herd.Config {
			out.Detached = append(out.Detached, pmk.DetachedKnobSnapshot{
				Index: i, Class: c, Config: k.Config, Transitions: k.Transitions,
			})
			continue
		}
		herd.Count++
		herd.Transitions += k.Transitions
	}
	return out, nil
}
