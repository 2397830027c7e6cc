package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/cluster"
	"greensprint/internal/workload"
)

// TestControllerCheckpointRoundTrip drives a controller through a few
// epochs, serializes its checkpoint through JSON, restores it into a
// fresh controller, and checks the two controllers decide identically
// from then on — the daemon's restart-without-amnesia property.
func TestControllerCheckpointRoundTrip(t *testing.T) {
	a := newController(t, "Hybrid", cluster.REBatt())
	for i := 0; i < 5; i++ {
		if _, err := a.Step(burstTelemetry(400)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(raw, &cp2); err != nil {
		t.Fatal(err)
	}

	b := newController(t, "Hybrid", cluster.REBatt())
	if err := b.Restore(&cp2); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Snapshot().Epoch, a.Snapshot().Epoch; got != want {
		t.Fatalf("restored epoch count = %d, want %d", got, want)
	}
	if got, want := len(b.History()), len(a.History()); got != want {
		t.Fatalf("restored history = %d decisions, want %d", got, want)
	}
	for i := 0; i < 3; i++ {
		da, err := a.Step(burstTelemetry(300))
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Step(burstTelemetry(300))
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Errorf("post-restore epoch %d diverged:\noriginal %+v\nrestored %+v", i, da, db)
		}
	}
}

// asV1ControllerBlob rewrites an encoded controller checkpoint into
// the exact wire format a version-1 binary would have written: version
// stamped 1, every v2 addition stripped — the epoch-length
// fingerprint, the injector state and the breaker state — and the
// battery bank in the per-unit form banks had then.
func asV1ControllerBlob(t testing.TB, b []byte) []byte {
	t.Helper()
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatal(err)
	}
	units := []battery.Snapshot{}
	for _, g := range cp.Selector.Bank.Groups {
		for i := 0; i < g.Count; i++ {
			units = append(units, g.State)
		}
	}
	cp.Selector.Bank = battery.BankSnapshot{Units: units}
	flat, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(flat, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = json.RawMessage(`1`)
	for _, field := range []string{"epoch_seconds", "chaos", "breaker"} {
		delete(m, field)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestControllerCheckpointMigrationChain is the controller counterpart
// of the sim chain test: one canned v1 blob walks the full shim chain
// (a single hop today, v1→v2) in one decode, the migrated checkpoint
// restores into a fresh controller, the restored controller's own
// re-cut checkpoint encodes byte-for-byte identical to the original's
// — the migration recovered the full state, current version and epoch
// fingerprint included — and both controllers decide identically from
// then on.
func TestControllerCheckpointMigrationChain(t *testing.T) {
	a := newController(t, "Hybrid", cluster.REBatt())
	for i := 0; i < 5; i++ {
		if _, err := a.Step(burstTelemetry(400)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}

	got, err := DecodeCheckpoint(asV1ControllerBlob(t, raw))
	if err != nil {
		t.Fatalf("decode v1 checkpoint through the chain: %v", err)
	}
	if got.Version != CheckpointVersion {
		t.Errorf("migrated version = %d, want %d", got.Version, CheckpointVersion)
	}
	if got.EpochSeconds != 0 {
		t.Errorf("migrated epoch fingerprint = %v, want 0 (v1 predates the field)", got.EpochSeconds)
	}
	if got.Chaos != nil || got.Breaker != nil {
		t.Errorf("migrated v1 checkpoint carries chaos state: %+v %+v", got.Chaos, got.Breaker)
	}

	b := newController(t, "Hybrid", cluster.REBatt())
	if err := b.Restore(got); err != nil {
		t.Fatalf("restore migrated v1 checkpoint: %v", err)
	}

	// Re-cut checkpoints from both controllers: each stamps the current
	// version and its own epoch fingerprint, so the encodings must match
	// exactly despite the restored one arriving via the v1 format.
	acp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bcp, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ab, err := json.Marshal(acp)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(bcp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Errorf("re-cut checkpoint differs from the original's:\noriginal %s\nrestored %s", ab, bb)
	}

	for i := 0; i < 4; i++ {
		da, err := a.Step(burstTelemetry(350))
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Step(burstTelemetry(350))
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Errorf("post-migration epoch %d diverged:\noriginal %+v\nrestored %+v", i, da, db)
		}
	}
}

// TestControllerRestoreRejectsMismatch verifies the checkpoint's
// configuration fingerprint: a checkpoint only restores into a
// controller running the same workload, strategy and green config, at
// the same format version.
func TestControllerRestoreRejectsMismatch(t *testing.T) {
	src := newController(t, "Hybrid", cluster.REBatt())
	if _, err := src.Step(burstTelemetry(400)); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if err := newController(t, "Hybrid", cluster.REBatt()).Restore(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}

	bad := *cp
	bad.Version = 99
	if err := newController(t, "Hybrid", cluster.REBatt()).Restore(&bad); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch = %v, want version error", err)
	}

	if err := newController(t, "Greedy", cluster.REBatt()).Restore(cp); err == nil ||
		!strings.Contains(err.Error(), "strategy") {
		t.Errorf("strategy mismatch = %v, want strategy error", err)
	}

	if err := newController(t, "Hybrid", cluster.RESBatt()).Restore(cp); err == nil ||
		!strings.Contains(err.Error(), "green config") {
		t.Errorf("green-config mismatch = %v, want green-config error", err)
	}

	bad = *cp
	bad.Workload = "Web-Search"
	if err := newController(t, "Hybrid", cluster.REBatt()).Restore(&bad); err == nil ||
		!strings.Contains(err.Error(), "workload") {
		t.Errorf("workload mismatch = %v, want workload error", err)
	}
}

// TestCheckpointMissingEpochSeconds: a v2+ controller checkpoint that
// lacks its epoch-length fingerprint fails to decode, so a 5-minute
// run cannot restore into a 1-minute controller. Only v1 files, which
// predate the field, skip it.
func TestCheckpointMissingEpochSeconds(t *testing.T) {
	src := newController(t, "Hybrid", cluster.REBatt())
	if _, err := src.Step(burstTelemetry(400)); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile("testdata/legacy_v2.checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"v3": raw, "legacy v2": legacy} {
		stripped := bytes.Replace(b, []byte(`"epoch_seconds":300,`), nil, 1)
		if bytes.Equal(stripped, b) {
			t.Fatalf("%s: no 300 s epoch_seconds to strip", name)
		}
		dec, err := DecodeCheckpoint(stripped)
		if err == nil {
			short, nerr := New(Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), StrategyName: dec.Strategy, Epoch: time.Minute})
			if nerr != nil {
				t.Fatal(nerr)
			}
			t.Fatalf("%s without epoch_seconds decoded; Restore into a 1-minute controller: %v", name, short.Restore(dec))
		}
		if !strings.Contains(err.Error(), "epoch_seconds") {
			t.Errorf("%s without epoch_seconds: %v, want an epoch_seconds error", name, err)
		}
	}
}
