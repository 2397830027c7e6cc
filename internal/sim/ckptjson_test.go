package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
	if _, _, ok := cp.appendJSON(nil, cp.cachedJSON()); fast && !ok {
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
	// Edits to Records that a checkpoint cut from a live engine must
	// notice, encoding the records afresh instead of splicing in the
	// engine's cached bytes.
	edits := map[string]func(cp *Checkpoint){
		"replace record":   func(cp *Checkpoint) { cp.Records[2] = cp.Records[3] },
		"copy records":     func(cp *Checkpoint) { cp.Records = append([]EpochRecord(nil), cp.Records...) },
		"append record":    func(cp *Checkpoint) { cp.Records = append(cp.Records, cp.Records[0]) },
		"truncate records": func(cp *Checkpoint) { cp.Records = cp.Records[:len(cp.Records)-1] },
		"nil records":      func(cp *Checkpoint) { cp.Records = nil },
		"record -0":        func(cp *Checkpoint) { cp.Records[0].SprintFraction = math.Copysign(0, -1) },
		"record zone":      func(cp *Checkpoint) { cp.Records[4].Start = cp.Records[4].Start.In(time.FixedZone("near", 3600)) },
	}
	fixture, err := os.ReadFile(hybridFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	live := mustNew(t, ckptConfig(t))
	for i := 0; i < 8; i++ {
		if _, _, err := live.Step(); err != nil {
			t.Fatal(err)
		}
		if i == 4 { // warm the engine's record log before the cut
			if _, err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	for fast, cases := range map[bool]map[string]func(cp *Checkpoint){true: members, false: rewrites} {
		for name, mutate := range cases {
			cp, err := DecodeCheckpoint(fixture)
			if err != nil {
				t.Fatal(err)
			}
			mutate(cp)
			checkEncodeParity(t, name, cp, fast)
		}
		for name, mutate := range cases {
			cp, err := live.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			mutate(cp)
			checkEncodeParity(t, "live "+name, cp, fast)
			checkWriteFile(t, "live "+name, cp, dir)
		}
	}
	for name, mutate := range edits {
		cp, err := live.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		mutate(cp)
		checkEncodeParity(t, "live "+name, cp, true)
		checkWriteFile(t, "live "+name, cp, dir)
	}
}

// checkWriteFile fails unless cp.WriteFile writes exactly Encode's
// bytes, or fails where Encode does.
func checkWriteFile(t *testing.T, name string, cp *Checkpoint, dir string) {
	t.Helper()
	want, wantErr := cp.Encode()
	path := filepath.Join(dir, "cp.json")
	if err := cp.WriteFile(path); wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: WriteFile error %v, Encode error %v", name, err, wantErr)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: WriteFile wrote other bytes than Encode:\n got %s\nwant %s", name, got, want)
	}
}

// stepTo steps e to epoch index n.
func stepTo(t *testing.T, e *Engine, n int) {
	t.Helper()
	for e.EpochIndex() < n {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// mustCut cuts e's checkpoint.
func mustCut(t *testing.T, e *Engine) *Checkpoint {
	t.Helper()
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCheckpointRecordLogSurvivesRestore pins the rule that a Restore
// drops the engine's record log rather than writing over it: a
// checkpoint cut before the Restore must still encode its own records
// once the restored engine has re-encoded different ones.
func TestCheckpointRecordLogSurvivesRestore(t *testing.T) {
	e := mustNew(t, ckptConfigFor(t, 2*time.Hour))
	stepTo(t, e, 10)
	cp0 := mustCut(t, e)
	b, err := cp0.Encode()
	if err != nil {
		t.Fatal(err)
	}
	edited, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if edited.Records[5].Goodput == 1 {
		t.Fatal("record 5 already has the edited goodput")
	}
	edited.Records[5].Goodput = 1
	if err := e.Restore(edited); err != nil {
		t.Fatal(err)
	}
	checkEncodeParity(t, "cut after restore", mustCut(t, e), true)
	checkEncodeParity(t, "cut before restore", cp0, true)
	checkWriteFile(t, "cut before restore", cp0, t.TempDir())
}

// TestCheckpointRecordLogOutOfOrder encodes a later cut before an
// earlier one: each splices in only the bytes of its own records.
func TestCheckpointRecordLogOutOfOrder(t *testing.T) {
	e := mustNew(t, ckptConfigFor(t, 2*time.Hour))
	stepTo(t, e, 10)
	cp10 := mustCut(t, e)
	stepTo(t, e, 20)
	cp20 := mustCut(t, e)
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		cp   *Checkpoint
	}{{"epoch 20", cp20}, {"epoch 10", cp10}} {
		if c.cp.cachedJSON() == nil {
			t.Fatalf("%s: the cut does not splice in the engine's record log", c.name)
		}
		checkEncodeParity(t, c.name, c.cp, true)
		checkWriteFile(t, c.name, c.cp, dir)
	}
}

// TestCheckpointRecordLogStops sets an engine record to NaN before the
// log reaches it: that cut and every later one must fail as
// json.Marshal does, and a Restore from a clean checkpoint starts a
// log that encodes again.
func TestCheckpointRecordLogStops(t *testing.T) {
	e := mustNew(t, ckptConfigFor(t, 2*time.Hour))
	stepTo(t, e, 10)
	clean := mustCut(t, e)
	stepTo(t, e, 11)
	e.records[10].Goodput = math.NaN()
	dir := t.TempDir()
	for _, n := range []int{11, 12, 15} {
		stepTo(t, e, n)
		cp := mustCut(t, e)
		if e.recLog.n != 10 {
			t.Fatalf("epoch %d: the record log covers %d records, want it stopped at the NaN record 10", n, e.recLog.n)
		}
		if _, err := cp.Encode(); err == nil {
			t.Fatalf("epoch %d: Encode accepted a NaN record", n)
		}
		checkEncodeParity(t, fmt.Sprintf("NaN cut at %d", n), cp, false)
		checkWriteFile(t, fmt.Sprintf("NaN cut at %d", n), cp, dir)
	}
	if err := e.Restore(clean); err != nil {
		t.Fatal(err)
	}
	stepTo(t, e, 12)
	cp := mustCut(t, e)
	if e.recLog.n != 12 {
		t.Fatalf("after Restore the log covers %d records, want 12", e.recLog.n)
	}
	checkEncodeParity(t, "cut after restoring a clean checkpoint", cp, true)
	checkWriteFile(t, "cut after restoring a clean checkpoint", cp, dir)
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
