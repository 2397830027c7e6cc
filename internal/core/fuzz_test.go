package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// fuzzSched is the schedule testdata/legacy_v2.checkpoint.json was cut
// under.
func fuzzSched() *chaos.Schedule {
	return chaosSched(
		chaos.Fault{Epoch: 2, Mode: chaos.ServerCrash, Target: 1, Recover: 8},
		chaos.Fault{Epoch: 3, Mode: chaos.BatteryDegrade, Target: 0, Factor: 0.7, Resist: 1.3},
	)
}

// fuzzController builds the RE-Batt controller a decoded checkpoint
// names: its strategy, with the fixture's chaos schedule when the
// checkpoint carries injector state.
func fuzzController(strat string, withChaos bool) (*Controller, error) {
	opts := Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), StrategyName: strat}
	if withChaos {
		inj, err := chaos.NewInjector(fuzzSched())
		if err != nil {
			return nil, err
		}
		opts.Chaos = inj
	}
	return New(opts)
}

// fuzzSeed steps a fresh controller n epochs and returns its encoded
// checkpoint.
func fuzzSeed(f *testing.F, strat string, withChaos bool, n int) []byte {
	f.Helper()
	c, err := fuzzController(strat, withChaos)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Step(burstTelemetry(units.Watt(200 + 50*i))); err != nil {
			f.Fatal(err)
		}
	}
	cp, err := c.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(cp)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzControllerCheckpoint hardens the controller's resume path: any
// bytes either fail DecodeCheckpoint or Restore, or restore a
// controller that steps on without panicking and whose own checkpoint
// round-trips encode → decode → encode byte for byte.
func FuzzControllerCheckpoint(f *testing.F) {
	legacy, err := os.ReadFile("testdata/legacy_v2.checkpoint.json")
	if err != nil {
		f.Fatal(err)
	}
	fresh := fuzzSeed(f, "Greedy", true, 5)
	f.Add(legacy)
	f.Add(fresh)
	f.Add(fuzzSeed(f, "Hybrid", false, 4))
	f.Add(asV1ControllerBlob(f, fuzzSeed(f, "Hybrid", false, 3)))
	f.Add(fresh[:len(fresh)/2])
	f.Add(bytes.Replace(fresh, []byte(`"transitions":`), []byte(`"transitions":-`), 1))
	// An active crash the schedule never injected, on a server outside
	// the rack and due to recover within the three steps: Restore must
	// reject it, since recovering it would index past the census.
	f.Add(bytes.Replace(fresh, []byte(`"target":1,"recover":8}]`), []byte(`"target":99,"recover":6}]`), 1))
	f.Fuzz(func(t *testing.T, in []byte) {
		cp, err := DecodeCheckpoint(in)
		if err != nil {
			return
		}
		c, err := fuzzController(cp.Strategy, cp.Chaos != nil)
		if err != nil {
			return
		}
		if err := c.Restore(cp); err != nil {
			return
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Step(burstTelemetry(units.Watt(300 * i))); err != nil {
				t.Fatalf("restored controller failed step %d: %v", i, err)
			}
		}
		out, err := c.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		b1, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeCheckpoint(b1)
		if err != nil {
			t.Fatalf("own checkpoint does not decode: %v", err)
		}
		b2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("checkpoint does not round-trip:\n%s\n%s", b1, b2)
		}
	})
}
