package sweep

import (
	"context"
	"fmt"

	"greensprint/internal/sim"
)

// ShardedRun executes one simulation split into `windows` contiguous
// time shards chained through sim.Checkpoint hand-off: window k+1
// starts from window k's checkpoint, and the final window's Result
// carries the stitched EpochRecord stream. Each window is driven by a
// freshly constructed Engine and the hand-off travels as encoded JSON,
// so the split proves cross-process resumability — the stitched output
// is bit-identical to an uninterrupted sim.Run over the same config.
//
// Each window runs as one StepN batch (batch size = shard window), so
// sharded replays ride the engine's idle fast path; StepN is
// bit-identical to per-epoch stepping, so the stitched-output
// guarantee is unchanged.
//
// windows <= 1 degenerates to the plain sequential run. ctx is checked
// between batches; cancellation returns ctx.Err().
func ShardedRun(ctx context.Context, cfg sim.Config, windows int) (*sim.Result, error) {
	probe, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	total := probe.TotalEpochs()
	if windows < 1 {
		windows = 1
	}
	if windows > total {
		windows = total
	}
	if windows <= 1 {
		return sim.Run(ctx, cfg)
	}

	var handoff []byte
	for w := 0; w < windows; w++ {
		// A fresh engine per window: nothing carries over except the
		// serialized checkpoint (the strategy instance in cfg is
		// shared, but Restore overwrites its state from the
		// checkpoint, so the window behaves as a cold resume).
		e, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		if handoff != nil {
			cp, err := sim.DecodeCheckpoint(handoff)
			if err != nil {
				return nil, fmt.Errorf("sweep: shard %d: %w", w, err)
			}
			if err := e.Restore(cp); err != nil {
				return nil, fmt.Errorf("sweep: shard %d: %w", w, err)
			}
		}
		end := (w + 1) * total / windows
		for e.EpochIndex() < end {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
			ran, err := e.StepN(end - e.EpochIndex())
			if err != nil {
				return nil, err
			}
			if ran == 0 {
				break
			}
		}
		if w == windows-1 {
			return e.Result(), nil
		}
		cp, err := e.Checkpoint()
		if err != nil {
			return nil, err
		}
		if handoff, err = cp.Encode(); err != nil {
			return nil, err
		}
	}
	return probe.Result(), nil // unreachable: windows >= 2 returns above
}
