package sim

import (
	"bytes"
	"os"
	"testing"

	"greensprint/internal/chaos"
	"greensprint/internal/strategy"
)

// hybridFixturePath holds a Hybrid checkpoint cut mid-chaos by the
// reflection-encoded Q-table snapshot that preceded the row-cached one.
const hybridFixturePath = "testdata/hybrid_v4.checkpoint.json"

// hybridFixtureCut is the epoch index the fixture was cut at.
const hybridFixtureCut = 6

// hybridFixtureConfig is the run the fixture was cut from: ckptConfig's
// Hybrid rack under the "light" chaos profile at seed 12, which takes
// server 2 down over epochs 4–8 and drops the green feed over epochs
// 4–6. It returns the config and its Hybrid.
func hybridFixtureConfig(t testing.TB) (Config, *strategy.Hybrid) {
	t.Helper()
	cfg := ckptConfig(t)
	prof, err := chaos.ParseProfile("light")
	if err != nil {
		t.Fatal(err)
	}
	total := mustNew(t, cfg).TotalEpochs()
	if cfg.Chaos, err = prof.Resolve(12, total, 3, 3); err != nil {
		t.Fatal(err)
	}
	h, err := strategy.NewHybrid(testProfile, testTable)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = h
	return cfg, h
}

// cutHybridFixture steps the fixture run to its cut — two burst epochs
// learned with server 2 down, so the table holds degraded rows — then
// has the Hybrid decide the next epoch without learning from it, as a
// checkpoint taken between Decide and Learn finds it, and returns the
// engine and its encoded checkpoint.
func cutHybridFixture(t *testing.T) (*Engine, []byte) {
	t.Helper()
	cfg, h := hybridFixtureConfig(t)
	e := mustNew(t, cfg)
	for i := 0; i < hybridFixtureCut; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	h.Decide(strategy.Inputs{
		Table:         testTable,
		PredictedRate: e.offeredBurst,
		Budget:        150,
		Epoch:         e.epoch,
		AliveFraction: 2.0 / 3,
		BatteryHealth: 1,
	})
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return e, b
}

// TestCheckpointHybridFixture pins checkpoint bytes across changes to
// how the Hybrid's Q-table is encoded. The committed fixture carries a
// pending decision and degraded-capacity rows. Cutting the same run
// today, and re-cutting the fixture after restoring it, must both
// reproduce it byte for byte, and the resumed run must finish exactly
// like the uninterrupted one.
func TestCheckpointHybridFixture(t *testing.T) {
	want, err := os.ReadFile(hybridFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"last":{`, `"degraded":1`, `"active":[`} {
		if !bytes.Contains(want, []byte(frag)) {
			t.Fatalf("fixture lacks %s", frag)
		}
	}
	if _, got := cutHybridFixture(t); !bytes.Equal(got, want) {
		t.Errorf("cutting the fixture run differs from the fixture:\nwant %s\ngot  %s", want, got)
	}

	cp, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := hybridFixtureConfig(t)
	e := mustNew(t, cfg)
	if err := e.Restore(cp); err != nil {
		t.Fatalf("restore hybrid fixture: %v", err)
	}
	if e.EpochIndex() != hybridFixtureCut {
		t.Fatalf("restored epoch index = %d, want %d", e.EpochIndex(), hybridFixtureCut)
	}
	recut, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	got, err := recut.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-cut checkpoint differs from the fixture:\nwant %s\ngot  %s", want, got)
	}

	refCfg, _ := hybridFixtureConfig(t)
	assertSameResult(t, mustRunAll(t, mustNew(t, refCfg)), mustRunAll(t, e))
}
