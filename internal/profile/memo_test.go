package profile

import (
	"errors"
	"math"
	"testing"

	"greensprint/internal/workload"
)

type memoKeyA struct{ x float64 }
type memoKeyB struct{ x float64 }

// TestMemo checks which calls share a value: a key built once is
// shared, keys of different types never collide, and neither a failed
// build nor a key holding a NaN, which no map lookup can find again, is
// stored.
func TestMemo(t *testing.T) {
	tab, err := Build(workload.SPECjbb(), 2)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	get := func(key any, build func() (*int, error)) *int {
		t.Helper()
		counted := func() (*int, error) { builds++; return build() }
		var v *int
		switch k := key.(type) {
		case memoKeyA:
			v, err = Memo(tab, k, counted)
		case memoKeyB:
			v, err = Memo(tab, k, counted)
		}
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	one, two := 1, 2
	a := get(memoKeyA{1}, func() (*int, error) { return &one, nil })
	if again := get(memoKeyA{1}, func() (*int, error) { return &two, nil }); again != a || builds != 1 {
		t.Fatalf("second call for one key got %v after %d builds, want the first value after 1", *again, builds)
	}
	if b := get(memoKeyB{1}, func() (*int, error) { return &two, nil }); b != &two || builds != 2 {
		t.Fatalf("a key of another type with the same value got %v after %d builds", *b, builds)
	}

	failed := errors.New("build failed")
	if _, err := Memo(tab, memoKeyA{3}, func() (*int, error) { return nil, failed }); !errors.Is(err, failed) {
		t.Fatalf("failed build returned %v", err)
	}
	if v := get(memoKeyA{3}, func() (*int, error) { return &one, nil }); v != &one {
		t.Fatal("a failed build was stored")
	}

	builds = 0
	nan := memoKeyA{math.NaN()}
	get(nan, func() (*int, error) { return &one, nil })
	get(nan, func() (*int, error) { return &one, nil })
	if builds != 2 {
		t.Fatalf("NaN key built %d times, want 2 (never stored)", builds)
	}
	n := 0
	tab.derived.Range(func(any, any) bool { n++; return true })
	if n != 3 {
		t.Fatalf("table holds %d values, want 3", n)
	}
}

// TestBuildCachedKeepsNoFailure checks that BuildCached does not keep
// a failed build: the next call must retry it.
func TestBuildCachedKeepsNoFailure(t *testing.T) {
	cached := func(p workload.Profile, levels int) bool {
		buildMu.Lock()
		defer buildMu.Unlock()
		_, ok := buildCache[buildKey{p: p, levels: levels}]
		return ok
	}
	p := workload.SPECjbb()
	for i := 0; i < 2; i++ {
		if _, err := BuildCached(p, 0); err == nil {
			t.Fatal("BuildCached(p, 0) succeeded, want a level-count error")
		}
		if cached(p, 0) {
			t.Fatal("a failed build stayed in the memo")
		}
	}
}
