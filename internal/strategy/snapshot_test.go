package strategy

import (
	"bytes"
	"encoding/json"
	"testing"

	"greensprint/internal/units"
)

// learnOnce has h decide at the given budget and learn from a served
// epoch, writing one Q row.
func learnOnce(h *Hybrid, budget units.Watt) {
	in := inputs(specTab, burstRate(specjbb), budget)
	cfg := h.Decide(in)
	h.Learn(Feedback{
		Chosen:  cfg,
		Supply:  budget,
		Power:   150,
		Offered: burstRate(specjbb),
		Goodput: burstRate(specjbb),
		Latency: 0.05,
		Next:    in,
	})
}

// reflectSnapshot is the snapshot SnapshotState replaced: the table's
// indented SaveQ output and the pending decision, through json.Marshal.
func reflectSnapshot(t *testing.T, h *Hybrid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st := hybridState{QTable: buf.Bytes()}
	if h.last.valid {
		st.Last = &hybridLast{State: h.last.state, Action: h.last.action}
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHybridSnapshotMatchesReflection checks SnapshotState against the
// marshalled hybridState after each of a run of Learns, with and
// without a pending decision, and that RestoreState takes it back.
func TestHybridSnapshotMatchesReflection(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		learnOnce(h, units.Watt(90+7*(i%12)))
		if i%3 == 0 {
			h.Decide(inputs(specTab, burstRate(specjbb), units.Watt(100+i)))
		}
		got, err := h.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if want := reflectSnapshot(t, h); !bytes.Equal(got, want) {
			t.Fatalf("learn %d: snapshot\n got %s\nwant %s", i, got, want)
		}
		back, err := NewHybrid(specjbb, specTab)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.RestoreState(got); err != nil {
			t.Fatal(err)
		}
		if again, err := back.SnapshotState(); err != nil || !bytes.Equal(again, got) {
			t.Fatalf("learn %d: restored snapshot differs (%v)", i, err)
		}
	}
}

// BenchmarkHybridSnapshotState measures a checkpoint's strategy
// section in the steady state: after one Learn, which writes one row of
// the bootstrapped table, SnapshotState encodes the whole table.
func BenchmarkHybridSnapshotState(b *testing.B) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.SnapshotState(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		learnOnce(h, units.Watt(90+7*(i%12)))
		b.StartTimer()
		if _, err := h.SnapshotState(); err != nil {
			b.Fatal(err)
		}
	}
}
