// Package sweep is the deterministic parallel execution engine behind
// the repo's ablation sweeps and figure grids. Every evaluation in
// internal/experiments decomposes into independent simulation cells
// (one seeded sim.Run, one predictor evaluation, one table lookup);
// sweep fans those cells out across runtime.GOMAXPROCS worker
// goroutines while guaranteeing that the results are bit-identical to
// a serial run:
//
//   - Results are returned in input order, regardless of completion
//     order.
//   - Each cell receives only its own inputs; the engine never shares
//     mutable state between cells. Callers must do the same (clone
//     per-cell strategy/Q-table state; share only read-only tables).
//   - Per-cell randomness must come from CellSeed(root, index), never
//     from a shared RNG stream, so a cell's seed does not depend on
//     scheduling order.
//
// Map handles flat cell slices; Grid handles cartesian products
// (duration x availability x variant figure grids). Both propagate the
// first error in input order, honor context cancellation mid-sweep,
// and convert a worker panic back into a panic on the calling
// goroutine tagged with the offending cell index. The worker count is
// process-wide (SetDefaultWorkers).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide default worker count; 0 means
// runtime.GOMAXPROCS(0). The CLIs' -workers N maps to
// SetDefaultWorkers(N).
var defaultWorkers atomic.Int64

// DefaultWorkers returns the worker count Map and Grid use; 1 runs the
// cells serially in input order on the calling goroutine.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers sets the process-wide default worker count and
// returns the previous setting (pass that value back to restore it).
// n <= 0 restores the default of runtime.GOMAXPROCS(0).
func SetDefaultWorkers(n int) int {
	prev := int(defaultWorkers.Load())
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
	return prev
}

// CellError wraps the error of one failed cell with its input index.
type CellError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *CellError) Error() string { return fmt.Sprintf("sweep: cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cell error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// CellSeed derives a deterministic per-cell RNG seed from a root seed
// and the cell's input index (a splitmix64 finalizer), so every cell
// gets an independent, well-mixed stream that does not depend on
// worker scheduling. Cells must use this — never a shared RNG — for
// parallel results to be bit-identical to serial ones.
func CellSeed(root int64, index int) int64 {
	z := uint64(root) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Map evaluates fn over every cell in cells across a worker pool and
// returns the results in input order. The first cell error (by input
// index, wrapped in *CellError) cancels the remaining cells; a
// canceled ctx stops dispatch and returns ctx.Err() when no cell
// failed first. A panicking fn re-panics on the calling goroutine with
// the cell index prepended.
func Map[I, O any](ctx context.Context, cells []I, fn func(ctx context.Context, index int, cell I) (O, error)) ([]O, error) {
	return mapN(ctx, len(cells), func(ctx context.Context, i int) (O, error) {
		return fn(ctx, i, cells[i])
	})
}

// Grid evaluates fn over the cartesian product of dims in row-major
// order (last dimension fastest) and returns the flattened results in
// that order. fn receives both the flat index and the per-dimension
// coordinate (the coord slice is owned by the callee and must not be
// retained). Error, cancellation, and panic semantics match Map.
func Grid[O any](ctx context.Context, dims []int, fn func(ctx context.Context, flat int, coord []int) (O, error)) ([]O, error) {
	n := 1
	for _, d := range dims {
		if d < 0 {
			return nil, fmt.Errorf("sweep: negative grid dimension %v", dims)
		}
		n *= d
	}
	return mapN(ctx, n, func(ctx context.Context, i int) (O, error) {
		coord := make([]int, len(dims))
		rem := i
		for k := len(dims) - 1; k >= 0; k-- {
			coord[k] = rem % dims[k]
			rem /= dims[k]
		}
		return fn(ctx, i, coord)
	})
}

// cellPanic carries a recovered worker panic back to the caller.
type cellPanic struct {
	index int
	value any
	stack []byte
}

func mapN[O any](ctx context.Context, n int, fn func(ctx context.Context, i int) (O, error)) ([]O, error) {
	workers := DefaultWorkers()
	if workers > n {
		workers = n
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]O, n)
	if n == 0 {
		return results, ctx.Err()
	}

	errs := make([]error, n)
	// stop cancels remaining cells on the first failure; cellCtx is
	// what the cells observe, so a caller's cancellation and the
	// engine's early-stop look the same to fn.
	cellCtx, stop := context.WithCancel(ctx)
	defer stop()

	var (
		next     atomic.Int64
		panicMu  sync.Mutex
		panicked *cellPanic
	)
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				// Keep the lowest-index panic for a deterministic
				// re-panic message under concurrent failures.
				if panicked == nil || i < panicked.index {
					panicked = &cellPanic{index: i, value: r, stack: debug.Stack()}
				}
				panicMu.Unlock()
				stop()
			}
		}()
		v, err := fn(cellCtx, i)
		if err != nil {
			errs[i] = err
			stop()
			return
		}
		results[i] = v
	}
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// The caller's cancellation and the engine's
			// early-stop both halt dispatch.
			if ctx.Err() != nil || cellCtx.Err() != nil {
				return
			}
			runCell(i)
		}
	}

	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	if panicked != nil {
		panic(fmt.Sprintf("sweep: cell %d panicked: %v\n%s", panicked.index, panicked.value, panicked.stack))
	}
	for i, err := range errs {
		if err != nil {
			return results, &CellError{Index: i, Err: err}
		}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}
