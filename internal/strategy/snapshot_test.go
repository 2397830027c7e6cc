package strategy

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"greensprint/internal/rl"
	"greensprint/internal/units"
)

// learnOnce has h decide at the given budget and learn from a served
// epoch, writing one Q row.
func learnOnce(h *Hybrid, budget units.Watt) {
	learnIn(h, inputs(specTab, burstRate(specjbb), budget))
}

// learnIn has h decide on in and learn from a served epoch.
func learnIn(h *Hybrid, in Inputs) {
	cfg := h.Decide(in)
	h.Learn(Feedback{
		Chosen:  cfg,
		Supply:  in.Budget,
		Power:   150,
		Offered: burstRate(specjbb),
		Goodput: burstRate(specjbb),
		Latency: 0.05,
		Next:    in,
	})
}

// tableWire is rl's persisted table form, for decoding a SaveQ.
type tableWire struct {
	Alpha   float64     `json:"alpha"`
	Gamma   float64     `json:"gamma"`
	Actions int         `json:"actions"`
	First   string      `json:"first_action"`
	Last    string      `json:"last_action"`
	States  []stateWire `json:"states"`
}

type stateWire struct {
	PowerLevel int       `json:"power_level"`
	LoadLevel  int       `json:"load_level"`
	Degraded   int       `json:"degraded,omitempty"`
	Q          []float64 `json:"q"`
}

// reflectSnapshot is the snapshot SnapshotState must write, through
// json.Marshal: h's SaveQ table less the rows a fresh Hybrid's table
// holds with bitwise-equal values, and the pending decision. It also
// returns the listed states.
func reflectSnapshot(t *testing.T, h *Hybrid) ([]byte, []rl.State) {
	t.Helper()
	fresh, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.SaveQ(&buf); err != nil {
		t.Fatal(err)
	}
	var tab tableWire
	if err := json.Unmarshal(buf.Bytes(), &tab); err != nil {
		t.Fatal(err)
	}
	all := tab.States
	tab.States = nil
	var listed []rl.State
	for _, st := range all {
		s := rl.State{PowerLevel: st.PowerLevel, LoadLevel: st.LoadLevel, Degraded: st.Degraded}
		seed := fresh.QTable().Row(s)
		if seed != nil && slices.EqualFunc(seed, st.Q, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			continue
		}
		tab.States = append(tab.States, st)
		listed = append(listed, s)
	}
	qt, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	st := hybridState{QTable: qt}
	if h.last.valid {
		st.Last = &hybridLast{State: h.last.state, Action: h.last.action}
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b, listed
}

// TestHybridSnapshotMatchesReflection checks SnapshotState against the
// marshalled hybridState after each of a run of Learns, healthy and
// degraded, with and without a pending decision, and that RestoreState
// takes it back to the same SaveQ. A fresh Hybrid's snapshot lists no
// states; the learned run's lists the degraded rows and the seeded
// rows it changed, and not the rest.
func TestHybridSnapshotMatchesReflection(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := h.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fresh, []byte(`"states":null}`)) {
		t.Errorf("fresh snapshot lists states: %s", fresh)
	}
	var listed []rl.State
	for i := 0; i < 40; i++ {
		in := inputs(specTab, burstRate(specjbb), units.Watt(90+7*(i%12)))
		if i%4 == 3 {
			in.AliveFraction = 2.0 / 3
		}
		learnIn(h, in)
		if i%3 == 0 {
			h.Decide(inputs(specTab, burstRate(specjbb), units.Watt(100+i)))
		}
		got, err := h.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		if want, listed = reflectSnapshot(t, h); !bytes.Equal(got, want) {
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
		var a, b bytes.Buffer
		if err := h.SaveQ(&a); err != nil {
			t.Fatal(err)
		}
		if err := back.SaveQ(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("learn %d: restored SaveQ differs", i)
		}
	}
	degraded, changed := 0, 0
	for _, s := range listed {
		if s.Degraded > 0 {
			degraded++
		} else {
			changed++
		}
	}
	if degraded == 0 || changed == 0 || len(listed) >= h.QTable().States() {
		t.Errorf("snapshot lists %d degraded and %d changed seed rows of %d", degraded, changed, h.QTable().States())
	}
}

// TestHybridRestoreRejects feeds RestoreState states no quantizer
// produces or from another knob space, listing every row as snapshots
// did before they listed only the changed ones, compact and indented:
// each must be rejected and leave the Hybrid as it was. The unbroken
// state restores to the same table in either form.
func TestHybridRestoreRejects(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	learnOnce(h, 120)
	table, err := h.table.AppendJSON(nil, nil)
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
		"pending power 21":    state(string(table), `{"PowerLevel":21,"LoadLevel":2,"Degraded":0},"action":0`),
		"pending load 10":     state(string(table), `{"PowerLevel":3,"LoadLevel":10,"Degraded":0},"action":0`),
		"row power -1":        state(row(`"power_level":-1,"load_level":0`), okLast),
		"row load -1":         state(row(`"power_level":0,"load_level":-1`), okLast),
		"row power 21":        state(row(`"power_level":21,"load_level":0`), okLast),
		"row load 10":         state(row(`"power_level":0,"load_level":10`), okLast),
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
		t.Errorf("the compact and indented forms restore different states")
	}
}

// TestHybridRestoreRejectsOutOfBounds pins two states from a file that
// lie past the quantizers' levels: a pending decision at power level 99
// and load level 500, whose next Learn would make a row no epoch reads,
// and a Q row at power level 1,000,000. Each is rejected, and the
// Hybrid keeps its snapshot, and after a Learn its 210 rows.
func TestHybridRestoreRejectsOutOfBounds(t *testing.T) {
	h, err := NewHybrid(specjbb, specTab)
	if err != nil {
		t.Fatal(err)
	}
	rows := h.QTable().States()
	if want := h.quantizer.Levels() * specTab.Levels; rows != want {
		t.Fatalf("fresh Hybrid has %d rows, want %d", rows, want)
	}
	in := inputs(specTab, burstRate(specjbb), 120)
	h.Decide(in)
	before, err := h.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	table, err := h.table.AppendJSON(nil, h.seed)
	if err != nil {
		t.Fatal(err)
	}
	q := "[0" + strings.Repeat(",0", len(h.table.Actions())-1) + "]"
	far := strings.Replace(string(table), `"states":null`, `"states":[{"power_level":1000000,"load_level":0,"q":`+q+`}]`, 1)
	for name, raw := range map[string]string{
		"pending":  `{"q_table":` + string(table) + `,"last":{"state":{"PowerLevel":99,"LoadLevel":500},"action":0}}`,
		"q_table":  `{"q_table":` + far + `}`,
		"q_table+": `{"q_table":` + far + `,"last":{"state":{"PowerLevel":1,"LoadLevel":1},"action":0}}`,
	} {
		if err := h.RestoreState([]byte(raw)); err == nil {
			t.Fatalf("%s: restored %s", name, raw)
		}
		if after, err := h.SnapshotState(); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%s: failed restore changed the Hybrid (%v)", name, err)
		}
	}
	h.Learn(Feedback{Supply: 120, Power: 120, Offered: 1, Goodput: 1, Latency: 0.05, Next: in})
	snap, err := h.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.QTable().States(); got != rows || bytes.Contains(snap, []byte(`"power_level":99`)) {
		t.Fatalf("after Learn: %d rows, want %d; snapshot %s", got, rows, snap)
	}
}

// BenchmarkHybridSnapshotState measures a checkpoint's strategy
// section in the steady state: after one Learn, which writes one row of
// the bootstrapped table, SnapshotState encodes the rows that left the
// seed.
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
