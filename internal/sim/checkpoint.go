package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"greensprint/internal/atomicfile"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/pmk"
	"greensprint/internal/predictor"
	"greensprint/internal/pss"
)

// CheckpointVersion is the format version written into every
// Checkpoint; Restore rejects any other version so stale files fail
// loudly instead of silently corrupting a resumed run. Version 2 added
// the StrategyName fingerprint; version 3 added the chaos injector's
// replay state (plus per-component degradation fields that older
// decoders would silently drop); version 4 added the topology state —
// topology fingerprint, class-indexed knob herd, grouped battery
// snapshot, per-class energy counters. Version-4 files cut before the
// paper's rack ran as a one-class fleet carry the flat layout instead
// (per-knob fleet, per-unit battery bank); Restore migrates them (see
// pmk.ClassFleet.RestoreFlat and battery.ClassBank.Restore). Version
// 5 lists only the Hybrid Q rows that left the bootstrap seed, which
// an older binary would overlay onto nothing. DecodeCheckpoint
// transparently migrates version-1 through version-4 files, whose
// full row lists overlay the seed to the same table.
const CheckpointVersion = 5

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
	// strategies; the rl-backed Hybrid persists the Q rows that left
	// its seed, in a form that pins the knob space).
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
	rack := e.rack.Snapshot()
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		Epoch:        e.epoch,
		SupplyStart:  e.cfg.Supply.Start,
		EpochIndex:   e.epochIndex,
		StrategyName: e.cfg.Strategy.Name(),
		Selector:     rack.Selector,
		Breaker:      rack.Breaker,
		LoadPred:     e.loadPred.Snapshot(),
		Strategy:     stratRaw,
		Records:      append([]EpochRecord(nil), e.records...),
		BurstPerfSum: e.burstPerfSum,
		BurstEpochs:  e.burstEpochs,

		Chaos: rack.Chaos,

		FleetFingerprint: e.fingerprint,
		ClassFleet:       rack.Knobs,
		ClassEnergyWh:    append([]float64(nil), e.classEnergyWh...),
	}
	return cp, nil
}

// Restore replaces the engine's state with a checkpoint cut from an
// engine built over the same Config. The checkpoint's version and
// schedule fingerprint must match, component snapshots must fit the
// engine's layout (bank size, fleet size, breaker presence), and a
// strategy snapshot must match the strategy's knob space. It is all or
// nothing: on error the engine is left as it was.
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
	switch {
	case cp.ClassFleet != nil && cp.FleetFingerprint != e.fingerprint:
		return fmt.Errorf("sim: restore: checkpoint fleet fingerprint %.12s… does not match generated topology %.12s…",
			cp.FleetFingerprint, e.fingerprint)
	case len(cp.ClassEnergyWh) != len(e.classEnergyWh):
		return fmt.Errorf("sim: restore: %d class energy counters for %d classes",
			len(cp.ClassEnergyWh), len(e.classEnergyWh))
	}
	// The rack and predictor snapshots are cheap; the strategy's is
	// not, so it restores last and leaves itself untouched on error.
	rack, pred := e.rack.Snapshot(), e.loadPred.Snapshot()
	err := e.rack.Restore(RackSnapshot{
		Selector: cp.Selector, Breaker: cp.Breaker, Chaos: cp.Chaos, Knobs: cp.ClassFleet, Flat: cp.Fleet,
	})
	if err == nil {
		err = e.loadPred.Restore(cp.LoadPred)
	}
	if err == nil {
		err = e.cfg.Strategy.RestoreState(cp.Strategy)
	}
	if err != nil {
		return errors.Join(fmt.Errorf("sim: restore: %w", err), e.rack.Restore(rack), e.loadPred.Restore(pred))
	}
	copy(e.classEnergyWh, cp.ClassEnergyWh)
	e.records = append(make([]EpochRecord, 0, e.TotalEpochs()), cp.Records...)
	e.burstPerfSum = cp.BurstPerfSum
	e.burstEpochs = cp.BurstEpochs
	e.epochIndex = cp.EpochIndex
	e.at = e.cfg.Supply.Start.Add(time.Duration(cp.EpochIndex) * e.epoch)
	return nil
}

// Encode serializes the checkpoint as JSON: exactly the bytes
// json.Marshal(c) writes, without reflection (appendJSON). The strategy
// state is copied as it is once jsonw.IsCompact proves it valid
// compact JSON that needs no escaping. Anything the fast path cannot
// write or prove — a NaN or ±Inf, a year outside [0,9999], a string or
// strategy state that encoding/json would rewrite — goes through
// json.Marshal whole, so the bytes and every error have one source.
func (c *Checkpoint) Encode() ([]byte, error) { return c.appendEncoded(nil) }

// appendEncoded appends Encode's bytes to b.
func (c *Checkpoint) appendEncoded(b []byte) ([]byte, error) {
	if out, ok := c.appendJSON(b); ok {
		return out, nil
	}
	enc, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	return append(b, enc...), nil
}

// DecodeCheckpoint parses a JSON checkpoint and checks its version.
// Version-1 through version-4 files migrate in place by their version
// stamp, each layout being a strict subset of the next: a v4 or older
// Hybrid state lists every Q row, which restores as a v5 list of
// changed rows does. v1 lacks the
// StrategyName fingerprint, left empty so Restore skips the check; a
// v2+ file without it fails, since Restore could not tell whose
// strategy state it carries. v2 predates chaos: the injector state is
// absent (a fault-free run) and battery units decode with undegraded
// defaults. v3 predates generated fleets and carries the flat layout,
// which Restore migrates. Any other version fails loudly.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	switch {
	case cp.Version < 1 || cp.Version > CheckpointVersion:
		return nil, fmt.Errorf("sim: decode checkpoint: version %d, supported %d", cp.Version, CheckpointVersion)
	case cp.Version == 1:
		cp.StrategyName = ""
	case cp.StrategyName == "":
		return nil, fmt.Errorf("sim: decode checkpoint: version %d file has no strategy_name", cp.Version)
	}
	cp.Version = CheckpointVersion
	return &cp, nil
}

// WriteFile atomically persists the checkpoint through the shared
// tmp+rename writer, so a process killed mid-write never leaves a
// truncated checkpoint behind. It does not fsync: a power loss can
// still lose the write (see internal/atomicfile).
func (c *Checkpoint) WriteFile(path string) error {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	b, err := c.appendEncoded((*buf)[:0])
	if err != nil {
		return err
	}
	*buf = b
	if err := atomicfile.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("sim: write checkpoint: %w", err)
	}
	return nil
}

// encodeBufs recycles WriteFile's encode buffers: a checkpoint cut
// every epoch would otherwise allocate and clear its full size (about
// 120 KB on average over a two-day Hybrid run) on every save.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadCheckpointFile loads and version-checks a checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: read checkpoint: %w", err)
	}
	return DecodeCheckpoint(b)
}
