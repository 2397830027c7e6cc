package strategy

import (
	"bytes"
	"encoding/json"
	"strings"
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

// TestHybridRestoreRejects feeds RestoreState states no quantizer
// produces or from another knob space, in the canonical form its
// one-pass reader parses and indented for encoding/json: both readers
// must reject each one and leave the Hybrid as it was. The unbroken
// state restores to the same table through either reader.
func TestHybridRestoreRejects(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	learnOnce(h, 120)
	table, err := h.table.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	q := "[0" + strings.Repeat(",0", len(h.table.Actions())-1) + "]"
	state := func(table, last string) []byte {
		return []byte(`{"q_table":` + table + `,"last":{"state":` + last + `}}`)
	}
	row := func(fields string) string {
		return strings.Replace(string(table), `"states":[`, `"states":[{`+fields+`,"q":`+q+`},`, 1)
	}
	okLast := `{"PowerLevel":3,"LoadLevel":2,"Degraded":1},"action":62`
	cases := map[string][]byte{
		"action 63":           state(string(table), `{"PowerLevel":3,"LoadLevel":2,"Degraded":0},"action":63`),
		"action -1":           state(string(table), `{"PowerLevel":3,"LoadLevel":2,"Degraded":0},"action":-1`),
		"pending power -1":    state(string(table), `{"PowerLevel":-1,"LoadLevel":2,"Degraded":0},"action":0`),
		"pending load -1":     state(string(table), `{"PowerLevel":3,"LoadLevel":-1,"Degraded":0},"action":0`),
		"pending degraded 4":  state(string(table), `{"PowerLevel":3,"LoadLevel":2,"Degraded":4},"action":0`),
		"pending degraded -1": state(string(table), `{"PowerLevel":3,"LoadLevel":2,"Degraded":-1},"action":0`),
		"row power -1":        state(row(`"power_level":-1,"load_level":0`), okLast),
		"row load -1":         state(row(`"power_level":0,"load_level":-1`), okLast),
		"row degraded 4":      state(row(`"power_level":0,"load_level":0,"degraded":4`), okLast),
		"row degraded -2":     state(row(`"power_level":0,"load_level":0,"degraded":-2`), okLast),
		"other knob space":    state(strings.Replace(string(table), `"actions":63`, `"actions":62`, 1), okLast),
	}
	before, err := h.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range cases {
		var indented bytes.Buffer
		if err := json.Indent(&indented, raw, "", " "); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for form, in := range map[string][]byte{"canonical": raw, "indented": indented.Bytes()} {
			if err := h.RestoreState(in); err == nil {
				t.Errorf("%s (%s): restored", name, form)
			}
			if after, err := h.SnapshotState(); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("%s (%s): failed restore changed the Hybrid (%v)", name, form, err)
			}
		}
	}

	good := state(row(`"power_level":0,"load_level":0,"degraded":3`), okLast)
	if _, _, ok := readCanonicalState(good); !ok {
		t.Fatal("the one-pass reader declined a canonical state")
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, good, "", " "); err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	for _, in := range [][]byte{good, indented.Bytes()} {
		if err := h.RestoreState(in); err != nil {
			t.Fatal(err)
		}
		snap, err := h.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Errorf("the two readers restore different states")
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
