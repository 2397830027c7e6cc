package sim

import (
	"bytes"
	"os"
	"testing"

	"greensprint/internal/chaos"
	"greensprint/internal/strategy"
)

// hybridFixturePath holds a Hybrid checkpoint cut mid-chaos by the
// reflection-encoded Q-table snapshot that preceded the row-cached
// one, listing every Q row.
const hybridFixturePath = "testdata/hybrid_v4.checkpoint.json"

// hybridV5FixturePath holds the same cut as hybridFixturePath in
// format v5, which lists only the Q rows that left the seed.
const hybridV5FixturePath = "testdata/hybrid_v5.checkpoint.json"

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
// how the Hybrid's Q-table is encoded. The committed fixtures carry a
// pending decision and degraded-capacity rows. Cutting the same run
// today must reproduce the v5 fixture byte for byte. Restoring either
// fixture — v4 lists every Q row, v5 only those that left the seed —
// and cutting again must give the v5 bytes too, and each resumed run
// must finish exactly like the uninterrupted one.
func TestCheckpointHybridFixture(t *testing.T) {
	want, err := os.ReadFile(hybridV5FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	cut, got := cutHybridFixture(t)
	if !bytes.Equal(got, want) {
		t.Errorf("cutting the fixture run differs from the v5 fixture:\nwant %s\ngot  %s", want, got)
	}
	cutQ := saveQ(t, cut.cfg.Strategy)
	refCfg, refH := hybridFixtureConfig(t)
	ref := mustRunAll(t, mustNew(t, refCfg))
	refQ := saveQ(t, refH)

	for _, path := range []string{hybridFixturePath, hybridV5FixturePath} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{`"last":{`, `"degraded":1`, `"active":[`} {
			if !bytes.Contains(b, []byte(frag)) {
				t.Fatalf("%s lacks %s", path, frag)
			}
		}
		cp, err := DecodeCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		cfg, h := hybridFixtureConfig(t)
		e := mustNew(t, cfg)
		if err := e.Restore(cp); err != nil {
			t.Fatalf("restore %s: %v", path, err)
		}
		if !bytes.Equal(saveQ(t, h), cutQ) {
			t.Errorf("%s restores a Q-table other than the cut's", path)
		}
		if e.EpochIndex() != hybridFixtureCut {
			t.Fatalf("%s: restored epoch index = %d, want %d", path, e.EpochIndex(), hybridFixtureCut)
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
			t.Errorf("re-cutting %s differs from the v5 fixture:\nwant %s\ngot  %s", path, want, got)
		}
		assertSameResult(t, ref, mustRunAll(t, e))
		if !bytes.Equal(saveQ(t, h), refQ) {
			t.Errorf("the run resumed from %s ends with a Q-table other than the uninterrupted run's", path)
		}
	}
}

// saveQ returns the Hybrid s's SaveQ bytes.
func saveQ(t *testing.T, s strategy.Strategy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.(*strategy.Hybrid).SaveQ(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
