package sim

import (
	"bytes"
	"encoding/json"
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
// decode → encode byte for byte. It also checks the fast paths against
// encoding/json: jsonw.IsCompact proves only what json.Marshal copies
// unchanged, Encode writes json.Marshal's bytes or error, a strategy
// state restores to the same engine compact or indented, and a
// rejected Restore leaves the engine's checkpoint as it was.
func FuzzCheckpoint(f *testing.F) {
	legacy, err := os.ReadFile("testdata/legacy_flat_v4.checkpoint.json")
	if err != nil {
		f.Fatal(err)
	}
	hybrid, err := os.ReadFile(hybridFixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(hybrid)
	f.Add(hybrid[:len(hybrid)/2])
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
	// Hybrid states no quantizer produces: a pending action past the
	// knob space, a degraded row, a negative power level.
	for _, r := range [][2]string{
		{`"action":`, `"action":63`},
		{`"degraded":1`, `"degraded":4`},
		{`"states":[{"power_level":`, `"states":[{"power_level":-1`},
	} {
		f.Add(bytes.Replace(hybrid, []byte(r[0]), []byte(r[1]), 1))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkCompactJSON(t, in)
		cp, err := DecodeCheckpoint(in)
		if err != nil {
			return
		}
		checkCompactJSON(t, cp.Strategy)
		checkEncodeParity(t, "decoded input", cp, false)
		e, err := New(fuzzConfig(t, cp))
		if err != nil {
			t.Fatal(err)
		}
		before := encodeEngine(t, e)
		restoreErr := e.Restore(cp)
		if len(cp.Strategy) > 0 {
			var indented bytes.Buffer
			if err := json.Indent(&indented, cp.Strategy, "", " "); err != nil {
				t.Fatal(err)
			}
			slow := *cp
			slow.Strategy = indented.Bytes()
			other, err := New(fuzzConfig(t, cp))
			if err != nil {
				t.Fatal(err)
			}
			slowErr := other.Restore(&slow)
			if (restoreErr == nil) != (slowErr == nil) {
				t.Fatalf("compact state restore error %v, indented %v", restoreErr, slowErr)
			}
			if !bytes.Equal(encodeEngine(t, e), encodeEngine(t, other)) {
				t.Fatal("compact and indented strategy states restore different engines")
			}
		}
		if restoreErr != nil {
			if !bytes.Equal(encodeEngine(t, e), before) {
				t.Fatalf("rejected restore (%v) changed the engine's checkpoint", restoreErr)
			}
			return
		}
		for i := 0; i < 3; i++ {
			if _, _, err := e.Step(); err != nil {
				t.Fatalf("restored engine failed step %d: %v", i, err)
			}
		}
		b1 := encodeEngine(t, e)
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
