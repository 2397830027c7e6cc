package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/jsonw"
)

// checkEncodeParity fails unless cp.Encode writes what json.Marshal
// writes for cp, or fails with json.Marshal's own error. With fast set,
// the reflection-free path must also have written it.
func checkEncodeParity(t *testing.T, name string, cp *Checkpoint, fast bool) {
	t.Helper()
	if _, ok := cp.appendJSON(nil); fast && !ok {
		t.Fatalf("%s: the fast encoder declined", name)
	}
	want, wantErr := json.Marshal(cp)
	got, err := cp.Encode()
	if wantErr != nil {
		if err == nil || err.Error() != "sim: encode checkpoint: "+wantErr.Error() {
			t.Fatalf("%s: Encode error %v, json.Marshal error %v", name, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from json.Marshal:\n got %s\nwant %s", name, got, want)
	}
}

// TestCheckpointEncodeMatchesReflection pins Encode to json.Marshal:
// byte for byte on every committed checkpoint fixture and on a
// checkpoint cut after every epoch of the flat and Hybrid fixture
// runs, and error for error on values encoding/json rejects or
// strategy states it would rewrite.
func TestCheckpointEncodeMatchesReflection(t *testing.T) {
	for _, path := range []string{hybridFixturePath, "testdata/legacy_flat_v4.checkpoint.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		checkEncodeParity(t, path, cp, true)
	}
	mid := mustNew(t, ckptConfig(t))
	for i := 0; i < mid.TotalEpochs()/2; i++ {
		if _, _, err := mid.Step(); err != nil {
			t.Fatal(err)
		}
	}
	midCp, err := mid.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := midCp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := DecodeCheckpoint(asOldestBlob(t, b))
	if err != nil {
		t.Fatal(err)
	}
	checkEncodeParity(t, "v1 chain blob", chain, true)

	hybridCfg, _ := hybridFixtureConfig(t)
	for name, cfg := range map[string]Config{"flat": legacyFixtureConfig(t), "hybrid": hybridCfg} {
		e := mustNew(t, cfg)
		for {
			cp, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			checkEncodeParity(t, name, cp, true)
			if _, ok, err := e.Step(); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
		}
	}

	// Optional members and edge values the fast path writes itself.
	members := map[string]func(cp *Checkpoint){
		"zone offset 5h30": func(cp *Checkpoint) {
			cp.SupplyStart = cp.SupplyStart.In(time.FixedZone("near", 5*3600+1800))
		},
		"breaker":             func(cp *Checkpoint) { cp.Breaker = &cluster.BreakerSnapshot{Stress: 0.25, Tripped: true} },
		"class energy":        func(cp *Checkpoint) { cp.ClassEnergyWh = []float64{1.5, math.Copysign(0, -1), 1e-7, 1e21} },
		"no names":            func(cp *Checkpoint) { cp.StrategyName, cp.FleetFingerprint = "", "" },
		"empty strategy":      func(cp *Checkpoint) { cp.Strategy = json.RawMessage{} },
		"no records":          func(cp *Checkpoint) { cp.Records = []EpochRecord{} },
		"record float edges":  func(cp *Checkpoint) { cp.Records[0].Offered, cp.Records[0].SoC = math.Copysign(0, -1), 5e-324 },
		"strategy scalar":     func(cp *Checkpoint) { cp.Strategy = json.RawMessage(`-1.5e+300`) },
		"strategy all shapes": func(cp *Checkpoint) { cp.Strategy = json.RawMessage(`{"a":[true,false,null,{},[],""],"b":{"c":0}}`) },
	}
	// Values encoding/json rejects, or strategy states it rewrites.
	rewrites := map[string]func(cp *Checkpoint){
		"NaN record":          func(cp *Checkpoint) { cp.Records[1].Latency = math.NaN() },
		"+Inf burst perf sum": func(cp *Checkpoint) { cp.BurstPerfSum = math.Inf(1) },
		"-Inf class energy":   func(cp *Checkpoint) { cp.ClassEnergyWh = []float64{math.Inf(-1)} },
		"year 10000":          func(cp *Checkpoint) { cp.SupplyStart = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"record year -1":      func(cp *Checkpoint) { cp.Records[0].Start = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"zone offset 24h": func(cp *Checkpoint) {
			cp.SupplyStart = cp.SupplyStart.In(time.FixedZone("far", 24*3600))
		},
		"invalid strategy":   func(cp *Checkpoint) { cp.Strategy = json.RawMessage(`{"q_table":}`) },
		"truncated strategy": func(cp *Checkpoint) { cp.Strategy = cp.Strategy[:len(cp.Strategy)/2] },
		"indented strategy": func(cp *Checkpoint) {
			var buf bytes.Buffer
			if err := json.Indent(&buf, cp.Strategy, "", "  "); err != nil {
				t.Fatal(err)
			}
			cp.Strategy = buf.Bytes()
		},
		"strategy with <":      func(cp *Checkpoint) { cp.Strategy = json.RawMessage(`{"a":"<b>"}`) },
		"strategy with U+2028": func(cp *Checkpoint) { cp.Strategy = json.RawMessage("{\"a\":\"x\u2028y\"}") },
		"strategy with escape": func(cp *Checkpoint) { cp.Strategy = json.RawMessage(`{"a":"\"\u00e9"}`) },
		"strategy name with &": func(cp *Checkpoint) { cp.StrategyName = "A&B" },
	}
	fixture, err := os.ReadFile(hybridFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	for fast, cases := range map[bool]map[string]func(cp *Checkpoint){true: members, false: rewrites} {
		for name, mutate := range cases {
			cp, err := DecodeCheckpoint(fixture)
			if err != nil {
				t.Fatal(err)
			}
			mutate(cp)
			checkEncodeParity(t, name, cp, fast)
		}
	}
}

// checkCompactJSON fails if jsonw.IsCompact accepts b where json.Valid
// rejects it or json.Marshal would not copy it unchanged.
func checkCompactJSON(t *testing.T, b []byte) {
	t.Helper()
	if !jsonw.IsCompact(b) {
		return
	}
	if !json.Valid(b) {
		t.Fatalf("IsCompact accepted invalid %q", b)
	}
	if out, err := json.Marshal(json.RawMessage(b)); err != nil || !bytes.Equal(out, b) {
		t.Fatalf("IsCompact accepted %q, which json.Marshal rewrites to %q (%v)", b, out, err)
	}
}
