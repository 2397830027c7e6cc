package sim

import (
	"bytes"
	"os"
	"testing"
)

// fuzzConfig builds the engine a decoded checkpoint names: the flat v4
// fixture's Greedy chaos run, the Hybrid fixture's light-chaos run, or
// the fault-free Hybrid run the migration blobs are cut from.
func fuzzConfig(t testing.TB, cp *Checkpoint) Config {
	switch {
	case cp.Chaos != nil && cp.StrategyName == "Greedy":
		return legacyFixtureConfig(t)
	case cp.Chaos != nil:
		cfg, _ := hybridFixtureConfig(t)
		return cfg
	}
	return ckptConfig(t)
}

// FuzzCheckpoint hardens the simulator's resume path: any bytes either
// fail DecodeCheckpoint or Restore, or restore an engine that steps on
// without panicking and whose own checkpoint round-trips encode →
// decode → encode byte for byte.
func FuzzCheckpoint(f *testing.F) {
	for _, path := range []string{"testdata/legacy_flat_v4.checkpoint.json", hybridFixturePath} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if path == hybridFixturePath {
			f.Add(b[:len(b)/2])
		}
	}
	e := mustNew(f, ckptConfig(f))
	for i := 0; i < e.TotalEpochs()/2; i++ {
		if _, _, err := e.Step(); err != nil {
			f.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(asOldestBlob(f, b))
	f.Fuzz(func(t *testing.T, in []byte) {
		cp, err := DecodeCheckpoint(in)
		if err != nil {
			return
		}
		e, err := New(fuzzConfig(t, cp))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(cp); err != nil {
			return
		}
		for i := 0; i < 3; i++ {
			if _, _, err := e.Step(); err != nil {
				t.Fatalf("restored engine failed step %d: %v", i, err)
			}
		}
		out, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		b1, err := out.Encode()
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeCheckpoint(b1)
		if err != nil {
			t.Fatalf("own checkpoint does not decode: %v", err)
		}
		b2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("checkpoint does not round-trip:\n%s\n%s", b1, b2)
		}
	})
}
