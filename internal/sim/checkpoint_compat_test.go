package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/obs"
	"greensprint/internal/pmk"
	"greensprint/internal/server"
	"greensprint/internal/strategy"
)

// flatLayout rewrites an encoded checkpoint of a paper-rack engine into
// the flat layout that checkpoints cut before the rack ran as a
// one-class fleet carry, and that every v1–v3 file has: a per-knob
// fleet instead of the knob herd and topology fingerprint, and a
// per-unit battery bank instead of groups. The herd's transition count
// is spread over its members (any split with the same total is a valid
// flat checkpoint of the run). It returns the result as a field map
// for the version helpers below to edit.
func flatLayout(t testing.TB, b []byte) map[string]json.RawMessage {
	t.Helper()
	cp, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if cp.ClassFleet == nil || len(cp.ClassFleet.Classes) != 1 {
		t.Fatalf("flatLayout needs a one-class checkpoint, got %+v", cp.ClassFleet)
	}
	herd := cp.ClassFleet.Classes[0]
	knobs := make([]pmk.KnobSnapshot, herd.Count+len(cp.ClassFleet.Detached))
	detached := map[int]bool{}
	for _, d := range cp.ClassFleet.Detached {
		knobs[d.Index] = pmk.KnobSnapshot{Config: d.Config, Transitions: d.Transitions}
		detached[d.Index] = true
	}
	left, members := herd.Transitions, herd.Count
	for i := range knobs {
		if !detached[i] {
			knobs[i] = pmk.KnobSnapshot{Config: herd.Config, Transitions: left / members}
			left -= knobs[i].Transitions
			members--
		}
	}
	bank := battery.BankSnapshot{Units: []battery.Snapshot{}}
	for _, g := range cp.Selector.Bank.Groups {
		for j := 0; j < g.Count; j++ {
			bank.Units = append(bank.Units, g.State)
		}
	}
	cp.Selector.Bank = bank
	cp.Fleet = &pmk.FleetSnapshot{Knobs: knobs}
	cp.ClassFleet, cp.FleetFingerprint = nil, ""
	flat, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(flat, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// asV1Blob rewrites an encoded checkpoint into the exact v1 wire
// format: the flat layout, version stamped 1 and no strategy_name
// field.
func asV1Blob(t *testing.T, b []byte) []byte {
	t.Helper()
	m := flatLayout(t, b)
	m["version"] = json.RawMessage(`1`)
	delete(m, "strategy_name")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointV1Migration runs an engine halfway, re-encodes its
// checkpoint as a version-1 blob, and verifies the compatibility shim:
// decode migrates the blob to the current version with an empty
// strategy fingerprint, the restored engine continues, and the
// completed run matches the uninterrupted reference bit for bit.
func TestCheckpointV1Migration(t *testing.T) {
	ref := mustRunAll(t, mustNew(t, ckptConfig(t)))

	e := mustNew(t, ckptConfig(t))
	stopAt := e.TotalEpochs() / 2
	for i := 0; i < stopAt; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	v1 := asV1Blob(t, b)
	got, err := DecodeCheckpoint(v1)
	if err != nil {
		t.Fatalf("decode v1 checkpoint: %v", err)
	}
	if got.Version != CheckpointVersion {
		t.Errorf("migrated version = %d, want %d", got.Version, CheckpointVersion)
	}
	if got.StrategyName != "" {
		t.Errorf("migrated strategy name = %q, want empty (v1 predates the field)", got.StrategyName)
	}

	fresh := mustNew(t, ckptConfig(t))
	if err := fresh.Restore(got); err != nil {
		t.Fatalf("restore migrated v1 checkpoint: %v", err)
	}
	if fresh.EpochIndex() != stopAt {
		t.Fatalf("restored epoch index = %d, want %d", fresh.EpochIndex(), stopAt)
	}
	assertSameResult(t, ref, mustRunAll(t, fresh))
}

// asV2Blob rewrites an encoded checkpoint into the exact v2 wire
// format: the flat layout, version stamped 2 and no chaos field. (The other v3
// additions — per-unit battery degradation — are omitempty fields
// that a fault-free run never emits, so nothing else differs.)
func asV2Blob(t *testing.T, b []byte) []byte {
	t.Helper()
	m := flatLayout(t, b)
	m["version"] = json.RawMessage(`2`)
	delete(m, "chaos")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointV2Migration is the canned-blob test for the v2→v3
// bump: a pre-chaos checkpoint decodes through the migration shim to
// the current version with no injector state, restores into a
// fault-free engine, and the completed run matches the uninterrupted
// reference bit for bit.
func TestCheckpointV2Migration(t *testing.T) {
	ref := mustRunAll(t, mustNew(t, ckptConfig(t)))

	e := mustNew(t, ckptConfig(t))
	stopAt := e.TotalEpochs() / 2
	for i := 0; i < stopAt; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	v2 := asV2Blob(t, b)
	got, err := DecodeCheckpoint(v2)
	if err != nil {
		t.Fatalf("decode v2 checkpoint: %v", err)
	}
	if got.Version != CheckpointVersion {
		t.Errorf("migrated version = %d, want %d", got.Version, CheckpointVersion)
	}
	if got.Chaos != nil {
		t.Errorf("migrated v2 checkpoint carries injector state: %+v", got.Chaos)
	}
	if got.StrategyName != cp.StrategyName {
		t.Errorf("migrated strategy name = %q, want %q (v2 already had the field)",
			got.StrategyName, cp.StrategyName)
	}

	fresh := mustNew(t, ckptConfig(t))
	if err := fresh.Restore(got); err != nil {
		t.Fatalf("restore migrated v2 checkpoint: %v", err)
	}
	assertSameResult(t, ref, mustRunAll(t, fresh))
}

// asV3Blob rewrites an encoded checkpoint into the exact v3 wire
// format: the flat layout, version stamped 3. (The v4 additions —
// fleet fingerprint, class-fleet snapshot, per-class energy — are
// omitempty fields the flat layout never emits.)
func asV3Blob(t *testing.T, b []byte) []byte {
	t.Helper()
	m := flatLayout(t, b)
	m["version"] = json.RawMessage(`3`)
	delete(m, "fleet_fingerprint")
	delete(m, "class_fleet")
	delete(m, "class_energy_wh")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointV3Migration is the canned-blob test for the v3→v4
// bump: a pre-fleet checkpoint decodes through the migration shim to
// the current version with no fleet state, restores into a flat
// engine, and the completed run matches the uninterrupted reference
// bit for bit.
func TestCheckpointV3Migration(t *testing.T) {
	ref := mustRunAll(t, mustNew(t, ckptConfig(t)))

	e := mustNew(t, ckptConfig(t))
	stopAt := e.TotalEpochs() / 2
	for i := 0; i < stopAt; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	v3 := asV3Blob(t, b)
	got, err := DecodeCheckpoint(v3)
	if err != nil {
		t.Fatalf("decode v3 checkpoint: %v", err)
	}
	if got.Version != CheckpointVersion {
		t.Errorf("migrated version = %d, want %d", got.Version, CheckpointVersion)
	}
	if got.ClassFleet != nil || got.FleetFingerprint != "" || got.ClassEnergyWh != nil {
		t.Errorf("migrated v3 checkpoint carries fleet state: %q %v %v",
			got.FleetFingerprint, got.ClassFleet, got.ClassEnergyWh)
	}

	fresh := mustNew(t, ckptConfig(t))
	if err := fresh.Restore(got); err != nil {
		t.Fatalf("restore migrated v3 checkpoint: %v", err)
	}
	assertSameResult(t, ref, mustRunAll(t, fresh))
}

// asOldestBlob rewrites an encoded checkpoint into the exact wire
// format a version-1 binary would have written: the flat layout,
// version stamped 1 and every later addition stripped — the strategy fingerprint (v2), the
// injector state (v3) and the fleet fields (v4). The pairwise helpers
// above each remove one version's fields; this removes them all.
func asOldestBlob(t testing.TB, b []byte) []byte {
	t.Helper()
	m := flatLayout(t, b)
	m["version"] = json.RawMessage(`1`)
	for _, field := range []string{
		"strategy_name",     // v2
		"chaos",             // v3
		"fleet_fingerprint", // v4
		"class_fleet",       // v4
		"class_energy_wh",   // v4
	} {
		delete(m, field)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointMigrationChain walks one canned v1 blob through the
// whole migration chain in a single decode, where the tests above
// each prove one hop in isolation. The end-to-end contract: the migrated checkpoint restores
// into a fresh engine whose own re-cut checkpoint encodes byte-for-byte
// identical to the uninterrupted reference's at the same epoch (the
// chain recovered the full state, not merely enough to limp forward),
// and the stitched run finishes bit-identical to the straight one.
func TestCheckpointMigrationChain(t *testing.T) {
	ref := mustNew(t, ckptConfig(t))
	e := mustNew(t, ckptConfig(t))
	stopAt := e.TotalEpochs() / 2
	for i := 0; i < stopAt; i++ {
		if _, _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	got, err := DecodeCheckpoint(asOldestBlob(t, b))
	if err != nil {
		t.Fatalf("decode v1 checkpoint through the full chain: %v", err)
	}
	if got.Version != CheckpointVersion {
		t.Errorf("migrated version = %d, want %d", got.Version, CheckpointVersion)
	}
	if got.StrategyName != "" {
		t.Errorf("migrated strategy name = %q, want empty (v1 predates the field)", got.StrategyName)
	}
	if got.Chaos != nil {
		t.Errorf("migrated v1 checkpoint carries injector state: %+v", got.Chaos)
	}
	if got.ClassFleet != nil || got.FleetFingerprint != "" || got.ClassEnergyWh != nil {
		t.Errorf("migrated v1 checkpoint carries fleet state: %q %v %v",
			got.FleetFingerprint, got.ClassFleet, got.ClassEnergyWh)
	}

	fresh := mustNew(t, ckptConfig(t))
	if err := fresh.Restore(got); err != nil {
		t.Fatalf("restore migrated v1 checkpoint: %v", err)
	}
	if fresh.EpochIndex() != stopAt {
		t.Fatalf("restored epoch index = %d, want %d", fresh.EpochIndex(), stopAt)
	}

	// Re-cut checkpoints from the restored engine and the reference at
	// the same epoch: both stamp the current version and the engine's
	// own strategy fingerprint, so the encodings must match exactly.
	refCp, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	freshCp, err := fresh.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	refB, err := refCp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	freshB, err := freshCp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refB, freshB) {
		t.Errorf("re-cut checkpoint differs from the reference's:\nreference %s\nrestored  %s", refB, freshB)
	}

	assertSameResult(t, mustRunAll(t, ref), mustRunAll(t, fresh))
}

// TestCheckpointStrategyMismatch verifies the v2 fingerprint: a
// checkpoint cut under one strategy must not restore into an engine
// running another.
func TestCheckpointStrategyMismatch(t *testing.T) {
	e := mustNew(t, ckptConfig(t))
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.StrategyName = "some-other-strategy"
	if err := e.Restore(cp); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Errorf("restore with mismatched strategy = %v, want strategy error", err)
	}
}

// TestCheckpointMissingStrategyName: a v2+ checkpoint that lacks its
// strategy fingerprint fails to decode, so it cannot restore into an
// engine running another strategy (here the Greedy fixture into a
// Pacing engine). Only v1 files, which predate the field, skip it.
func TestCheckpointMissingStrategyName(t *testing.T) {
	b, err := os.ReadFile("testdata/legacy_flat_v4.checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	stripped := bytes.Replace(b, []byte(`"strategy_name":"Greedy",`), nil, 1)
	if bytes.Equal(stripped, b) {
		t.Fatal("the fixture carries no Greedy strategy_name")
	}
	for _, v := range []string{"2", "3", "4"} {
		in := bytes.Replace(stripped, []byte(`{"version":4,`), []byte(`{"version":`+v+`,`), 1)
		cp, err := DecodeCheckpoint(in)
		if err == nil {
			cfg := legacyFixtureConfig(t)
			cfg.Strategy = strategy.Pacing{}
			t.Fatalf("v%s without strategy_name decoded; Restore into a Pacing engine: %v", v, mustNew(t, cfg).Restore(cp))
		}
		if !strings.Contains(err.Error(), "strategy_name") {
			t.Errorf("v%s without strategy_name: %v, want a strategy_name error", v, err)
		}
	}
}

func mustNew(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// legacyFixtureConfig is the run testdata/legacy_flat_v4.checkpoint.json
// was cut from, five epochs in, by an engine that still stored the
// paper's rack as a per-unit bank and a per-knob fleet: server 1 is
// down (epochs 2–8) and battery unit 0 was degraded at epoch 3.
func legacyFixtureConfig(t testing.TB) Config {
	t.Helper()
	cfg := ckptConfig(t)
	cfg.Strategy = strategy.Greedy{}
	cfg.Chaos = &chaos.Schedule{Seed: 1, Epochs: 10, Servers: 3, Units: 3, Faults: []chaos.Fault{
		{Epoch: 2, Mode: chaos.ServerCrash, Target: 1, Recover: 8},
		{Epoch: 3, Mode: chaos.BatteryDegrade, Target: 0, Factor: 0.7, Resist: 1.3},
	}}
	return cfg
}

func readLegacyFixture(t *testing.T) *Checkpoint {
	t.Helper()
	b, err := os.ReadFile("testdata/legacy_flat_v4.checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatalf("decode flat v4 fixture: %v", err)
	}
	if cp.ClassFleet != nil || cp.Fleet == nil || len(cp.Selector.Bank.Units) != 3 {
		t.Fatalf("fixture is not in the flat layout: class fleet %v, fleet %v, %d units",
			cp.ClassFleet, cp.Fleet, len(cp.Selector.Bank.Units))
	}
	return cp
}

// TestCheckpointFlatV4Fixture restores the committed flat-layout v4
// checkpoint mid-chaos and demands the resumed run continue byte for
// byte like the uninterrupted one — whose own stream must match the
// golden the per-unit engine emitted: same records and aggregates, same
// knob-transition total, and the same event stream from the cut on.
// The migration detaches the crashed server (and so the knob whose
// setting differs from its herd's), keeps the healthy servers as one
// herd with their transitions summed, and folds the per-unit bank into
// a degraded unit 0 and a two-unit healthy group.
func TestCheckpointFlatV4Fixture(t *testing.T) {
	cp := readLegacyFixture(t)
	knobTotal := 0
	for _, k := range cp.Fleet.Knobs {
		knobTotal += k.Transitions
	}

	refCfg := legacyFixtureConfig(t)
	var refEvents, gotEvents strings.Builder
	refCfg.Sink = obs.NewJSONL(&refEvents)
	ref := mustRunAll(t, mustNew(t, refCfg))
	// The uninterrupted run is itself pinned: the per-unit engine that
	// cut the fixture emitted exactly this stream. Degrading unit 0
	// first leaves a healthy two-unit group after it, where a scaled
	// sum would round differently from the per-unit one.
	golden, err := os.ReadFile("testdata/legacy_flat_v4.events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if refEvents.String() != string(golden) {
		t.Fatalf("uninterrupted event stream differs from the per-unit engine's golden:\nwant %s\ngot  %s", golden, refEvents.String())
	}

	cfg := legacyFixtureConfig(t)
	cfg.Sink = obs.NewJSONL(&gotEvents)
	e := mustNew(t, cfg)
	if err := e.Restore(cp); err != nil {
		t.Fatalf("restore flat v4 fixture: %v", err)
	}
	if got := e.rack.Knobs.Transitions(); got != knobTotal {
		t.Errorf("migrated transition total = %d, want %d", got, knobTotal)
	}
	if d := e.rack.Knobs.Detached(); d != 1 {
		t.Errorf("migration detached %d servers, want 1 (the crashed server)", d)
	}
	if g := e.rack.Selector.Bank().(*battery.ClassBank).Groups(); g != 2 {
		t.Errorf("migrated bank has %d groups, want 2", g)
	}
	got := mustRunAll(t, e)
	assertSameResult(t, ref, got)
	if wt, gt := ref.ClassFleet.Transitions(), got.ClassFleet.Transitions(); wt != gt {
		t.Errorf("knob transitions = %d, want %d", gt, wt)
	}

	var tail []string
	for _, line := range strings.SplitAfter(refEvents.String(), "\n") {
		var ev struct {
			Epoch int `json:"epoch"`
		}
		if line != "" {
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Epoch >= cp.EpochIndex {
				tail = append(tail, line)
			}
		}
	}
	if want := strings.Join(tail, ""); gotEvents.String() != want {
		t.Errorf("resumed event stream differs from the uninterrupted run's:\nwant %s\ngot  %s", want, gotEvents.String())
	}
}

// TestCheckpointFlatLayoutEveryEpoch cuts a chaos run at every epoch,
// rewrites each checkpoint into the flat layout, resumes it, and steps
// it in lockstep with the uninterrupted run: every server's knob
// setting must agree after every epoch. Server 2 crashes during the
// idle lead, where its knob still matches the herd's Normal setting,
// so the migration must detach it because the injector reports it
// down — left in the herd, it would be actuated while down.
func TestCheckpointFlatLayoutEveryEpoch(t *testing.T) {
	cfg := func() Config {
		c := legacyFixtureConfig(t)
		c.Chaos = &chaos.Schedule{Seed: 1, Epochs: 10, Servers: 3, Units: 3, Faults: []chaos.Fault{
			{Epoch: 0, Mode: chaos.ServerCrash, Target: 2, Recover: 6},
			{Epoch: 1, Mode: chaos.BatteryDegrade, Target: 0, Factor: 0.8, Resist: 1.2},
		}}
		return c
	}
	total := mustNew(t, cfg()).TotalEpochs()
	for k := 1; k < total; k++ {
		ref := mustNew(t, cfg())
		for i := 0; i < k; i++ {
			if _, _, err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := ref.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		flat, err := json.Marshal(flatLayout(t, b))
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := DecodeCheckpoint(flat)
		if err != nil {
			t.Fatal(err)
		}
		e := mustNew(t, cfg())
		if err := e.Restore(legacy); err != nil {
			t.Fatalf("cut at %d: restore flat layout: %v", k, err)
		}
		for !ref.Done() {
			if _, _, err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if w, g := fmt.Sprint(ref.rack.Knobs.Configs()), fmt.Sprint(e.rack.Knobs.Configs()); w != g {
				t.Fatalf("cut at %d, epoch %d: knob settings %s, want %s", k, e.EpochIndex(), g, w)
			}
		}
		assertSameResult(t, ref.Result(), e.Result())
		if wt, gt := ref.rack.Knobs.Transitions(), e.rack.Knobs.Transitions(); wt != gt {
			t.Errorf("cut at %d: knob transitions = %d, want %d", k, gt, wt)
		}
	}
}

// TestCheckpointFlatV4Malformed feeds the flat-layout migration broken
// legacy state: each case must fail Restore with an error, never panic.
func TestCheckpointFlatV4Malformed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Checkpoint)
		match  string
	}{
		{"unit count", func(cp *Checkpoint) { cp.Selector.Bank.Units = cp.Selector.Bank.Units[:2] }, "2 units"},
		{"NaN SoC", func(cp *Checkpoint) { cp.Selector.Bank.Units[1].SoC = math.NaN() }, "SoC"},
		{"fade above 1", func(cp *Checkpoint) { cp.Selector.Bank.Units[2].CapacityFade = 1.5 }, "fade"},
		{"negative fade", func(cp *Checkpoint) { cp.Selector.Bank.Units[0].CapacityFade = -0.3 }, "fade"},
		{"knob count", func(cp *Checkpoint) { cp.Fleet.Knobs = cp.Fleet.Knobs[:2] }, "knobs"},
		{"negative transitions", func(cp *Checkpoint) { cp.Fleet.Knobs[2].Transitions = -1 }, "negative"},
		{"invalid knob config", func(cp *Checkpoint) { cp.Fleet.Knobs[0].Config = server.Config{} }, "invalid"},
		{"no knob fleet", func(cp *Checkpoint) { cp.Fleet = nil }, "knob fleet"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := readLegacyFixture(t)
			tc.mutate(cp)
			err := mustNew(t, legacyFixtureConfig(t)).Restore(cp)
			if err == nil || !strings.Contains(err.Error(), tc.match) {
				t.Fatalf("Restore = %v, want an error mentioning %q", err, tc.match)
			}
		})
	}
}
