package strategy

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// FuzzHybridRestore hardens the Hybrid's one restore path: on any
// input RestoreState does not panic, a rejected state leaves the
// Hybrid as it was, and an accepted one re-snapshots to bytes that
// restore another Hybrid to the same table, and so the same SaveQ,
// and the same snapshot.
func FuzzHybridRestore(f *testing.F) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		f.Fatal(err)
	}
	fresh, err := h.SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(fresh))
	for i := 0; i < 6; i++ {
		in := inputs(specTab, burstRate(specjbb), 120)
		if i%2 == 1 {
			in.AliveFraction = 2.0 / 3
		}
		learnIn(h, in)
	}
	h.Decide(inputs(specTab, burstRate(specjbb), 140))
	learned, err := h.SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Contains(learned, []byte(`"last":{`)) || !bytes.Contains(learned, []byte(`"degraded":`)) {
		f.Fatalf("learned seed lacks a pending decision or a degraded row: %s", learned)
	}
	f.Add([]byte(learned))
	fixture, err := os.ReadFile("../sim/testdata/hybrid_v4.checkpoint.json")
	if err != nil {
		f.Fatal(err)
	}
	var cp struct {
		Strategy json.RawMessage `json:"strategy"`
	}
	if err := json.Unmarshal(fixture, &cp); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(cp.Strategy))
	// The first levels past the quantizers', in a row and pending.
	for _, in := range []string{
		strings.Replace(string(learned), `"power_level":`, `"power_level":21,"_":`, 1),
		strings.Replace(string(learned), `"load_level":`, `"load_level":10,"_":`, 1),
		strings.Replace(string(learned), `"last":{"state":{"PowerLevel":`, `"last":{"state":{"PowerLevel":21,"_":`, 1),
		strings.Replace(string(learned), `"LoadLevel":`, `"LoadLevel":10,"_":`, 1),
	} {
		f.Add([]byte(in))
	}
	// Each input restores into a copy of one learned Hybrid with a
	// pending decision: building a Hybrid per input would cost the
	// fuzzer most of its time.
	tmpl, err := NewHybrid(specjbb, specTab)
	if err != nil {
		f.Fatal(err)
	}
	learnOnce(tmpl, 120)
	tmpl.Decide(inputs(specTab, burstRate(specjbb), 140))
	before, err := tmpl.SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		h := copyHybrid(tmpl)
		if err := h.RestoreState(raw); err != nil {
			// A snapshot fixes the table, as the seed overlaid with
			// its rows, and the pending decision.
			if after, err := h.SnapshotState(); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("rejected restore (%v) changed the Hybrid", err)
			}
			return
		}
		snap, table := snapshotAndTable(t, h)
		back := copyHybrid(tmpl)
		if err := back.RestoreState(snap); err != nil {
			t.Fatalf("re-snapshot %s does not restore: %v", snap, err)
		}
		if again, againTable := snapshotAndTable(t, back); !bytes.Equal(againTable, table) || !bytes.Equal(again, snap) {
			t.Fatalf("re-snapshot restores a different Hybrid:\n got %s\nwant %s", again, snap)
		}
	})
}

// copyHybrid returns a copy of h with its own Q-table and scratch; the
// seed, never written after NewHybrid, stays shared.
func copyHybrid(h *Hybrid) *Hybrid {
	c := *h
	c.table = h.table.Clone()
	c.fracs = slices.Clone(h.fracs)
	c.probed = slices.Clone(h.probed)
	return &c
}

// snapshotAndTable returns h's SnapshotState and its whole Q-table in
// compact form, which SaveQ writes indented.
func snapshotAndTable(t *testing.T, h *Hybrid) ([]byte, []byte) {
	t.Helper()
	snap, err := h.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	table, err := h.table.AppendJSON(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return snap, table
}
