package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// useWorkers sets the process-wide sweep worker count for the rest of
// the test and restores the previous setting when the test ends.
func useWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetDefaultWorkers(n)
	t.Cleanup(func() { SetDefaultWorkers(prev) })
}

func TestMapPreservesInputOrder(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		useWorkers(t, workers)
		got, err := Map(context.Background(), cells, func(_ context.Context, i, cell int) (int, error) {
			if i != cell {
				t.Errorf("workers=%d: index %d got cell %d", workers, i, cell)
			}
			// Stagger completion so out-of-order finishes would show.
			if i%7 == 0 {
				time.Sleep(time.Millisecond)
			}
			return cell * cell, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(cells) {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroCells(t *testing.T) {
	got, err := Map(context.Background(), nil, func(context.Context, int, int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestMapSingleWorkerIsSerial(t *testing.T) {
	var order []int
	useWorkers(t, 1)
	_, err := Map(context.Background(), []int{0, 1, 2, 3, 4}, func(_ context.Context, i, _ int) (int, error) {
		order = append(order, i) // safe: one worker runs on the calling goroutine
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	cells := make([]int, 64)
	boom := errors.New("boom")
	var ran atomic.Int64
	useWorkers(t, 4)
	_, err := Map(context.Background(), cells, func(_ context.Context, i, _ int) (int, error) {
		ran.Add(1)
		if i == 3 || i == 40 {
			return 0, fmt.Errorf("cell %d: %w", i, boom)
		}
		time.Sleep(100 * time.Microsecond) // let the early-stop win the dispatch race
		return 0, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T not a *CellError", err)
	}
	// The reported error must be the lowest failing input index that
	// actually ran, regardless of which worker failed first.
	if ce.Index != 3 && ce.Index != 40 {
		t.Fatalf("index = %d", ce.Index)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost: %v", err)
	}
	if ran.Load() == int64(len(cells)) {
		t.Error("error did not stop dispatch early")
	}
}

func TestMapContextCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cells := make([]int, 1000)
	var ran atomic.Int64
	useWorkers(t, 4)
	_, err := Map(ctx, cells, func(ctx context.Context, i, _ int) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == int64(len(cells)) {
		t.Error("cancellation did not stop dispatch")
	}
}

func TestMapCellSeesCancellation(t *testing.T) {
	// The ctx handed to a cell must report cancellation after an
	// earlier cell fails, so long-running sims can bail out.
	var sawCancel atomic.Bool
	started := make(chan struct{})
	useWorkers(t, 2)
	_, err := Map(context.Background(), make([]int, 8), func(ctx context.Context, i, _ int) (int, error) {
		if i == 0 {
			<-started // fail only once a long-running cell is in flight
			return 0, errors.New("first cell fails")
		}
		if i == 1 {
			close(started)
		}
		deadline := time.After(2 * time.Second)
		for {
			select {
			case <-ctx.Done():
				sawCancel.Store(true)
				return 0, ctx.Err()
			case <-deadline:
				return i, nil
			}
		}
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !sawCancel.Load() {
		t.Error("running cells never observed the early-stop cancellation")
	}
}

func TestMapPanicCarriesCellIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: no panic", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "cell 13 panicked") || !strings.Contains(msg, "kaboom") {
					t.Fatalf("workers=%d: panic message %q lacks cell index or cause", workers, msg)
				}
			}()
			useWorkers(t, workers)
			Map(context.Background(), make([]int, 20), func(_ context.Context, i, _ int) (int, error) {
				if i == 13 {
					panic("kaboom")
				}
				return i, nil
			})
		}()
	}
}

func TestGridRowMajorCoordinates(t *testing.T) {
	dims := []int{2, 3, 4}
	type cell struct {
		flat  int
		coord [3]int
	}
	useWorkers(t, 4)
	got, err := Grid(context.Background(), dims, func(_ context.Context, flat int, coord []int) (cell, error) {
		return cell{flat: flat, coord: [3]int{coord[0], coord[1], coord[2]}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 24 {
		t.Fatalf("len = %d", len(got))
	}
	flat := 0
	for a := 0; a < dims[0]; a++ {
		for b := 0; b < dims[1]; b++ {
			for c := 0; c < dims[2]; c++ {
				w := cell{flat: flat, coord: [3]int{a, b, c}}
				if got[flat] != w {
					t.Fatalf("got[%d] = %+v, want %+v", flat, got[flat], w)
				}
				flat++
			}
		}
	}
}

func TestGridEmptyDimension(t *testing.T) {
	got, err := Grid(context.Background(), []int{3, 0, 2}, func(context.Context, int, []int) (int, error) {
		t.Fatal("fn called for empty grid")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestGridNegativeDimension(t *testing.T) {
	if _, err := Grid(context.Background(), []int{2, -1}, func(context.Context, int, []int) (int, error) {
		return 0, nil
	}); err == nil {
		t.Fatal("want error for negative dimension")
	}
}

func TestCellSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := CellSeed(42, i)
		if again := CellSeed(42, i); again != s {
			t.Fatalf("CellSeed(42,%d) unstable: %d vs %d", i, s, again)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between cells %d and %d", prev, i)
		}
		seen[s] = i
	}
	if CellSeed(1, 0) == CellSeed(2, 0) {
		t.Error("different roots produced the same seed")
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	prev := SetDefaultWorkers(1)
	defer SetDefaultWorkers(prev)
	if got := DefaultWorkers(); got != 1 {
		t.Fatalf("DefaultWorkers = %d", got)
	}
	if got := SetDefaultWorkers(0); got != 1 {
		t.Fatalf("SetDefaultWorkers returned %d", got)
	}
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("reset DefaultWorkers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
