package rl

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzReadJSON hardens the Q-table loader: every table it accepts
// spans the knob space and holds only states within the base's bounds,
// and the same bytes read against an empty base and a seeded one give
// the same verdict and the base's rows with each stored row overlaid,
// bit for bit.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"alpha":0.7,"gamma":0.9,"actions":63,"first_action":"6c@1.2GHz","last_action":"12c@2GHz","states":[]}`)
	f.Add(`{"alpha":0.7,"gamma":0.9,"actions":63,"first_action":"6c@1.2GHz","last_action":"12c@2GHz","states":[{"power_level":1,"load_level":2,"q":[1]}]}`)
	f.Add(`{bad`)
	f.Add(`{"alpha":9,"gamma":0.9,"actions":63}`)
	empty := newTestTable(f)
	tab := newTestTable(f)
	tab.Seed(State{PowerLevel: 2, LoadLevel: 1}, 4, 1.5e-7)
	tab.Seed(State{PowerLevel: 0, LoadLevel: 3, Degraded: 2}, 62, -2.25)
	canon, err := tab.AppendJSON(nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, in := range []string{
		string(canon),
		string(canon) + " ",
		strings.Replace(string(canon), `"alpha":0.7`, `"alpha": 0.7`, 1),
		strings.Replace(string(canon), `"actions":63`, `"actions":6.3e1`, 1),
		strings.Replace(string(canon), `"power_level":2`, `"power_level":-1`, 1),
		strings.Replace(string(canon), `"degraded":2`, `"degraded":4`, 1),
		strings.Replace(string(canon), `"degraded":2`, `"degraded":0`, 1),
		strings.Replace(string(canon), `"states":[`, `"states":[{"power_level":2,"load_level":1,"q":null},`, 1),
		strings.Replace(string(canon), `"gamma"`, `"Gamma"`, 1),
		strings.Replace(string(canon), `{"alpha":0.7`, `{"alpha":0.5,"alpha":0.7`, 1),
		strings.Replace(string(canon), `"first_action":"6c`, `"first_action":"\u0036c`, 1),
		strings.Replace(string(canon), `1.5e-7`, `1e999`, 1),
		strings.Replace(string(canon), `"states":[`, `"states":null,"states":[`, 1),
		strings.Replace(string(canon), `"states":[`, `"extra":1,"states":[`, 1),
		// The last levels in bounds, and the first ones past them.
		strings.Replace(string(canon), `"power_level":2`, `"power_level":20`, 1),
		strings.Replace(string(canon), `"load_level":1`, `"load_level":9`, 1),
		strings.Replace(string(canon), `"power_level":2`, `"power_level":21`, 1),
		strings.Replace(string(canon), `"load_level":1`, `"load_level":10`, 1),
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		b := []byte(in)
		got, err := ReadJSON(b, empty)
		over, overErr := ReadJSON(b, tab)
		if (err == nil) != (overErr == nil) {
			t.Fatalf("ReadJSON error %v, against a base %v", err, overErr)
		}
		if err != nil {
			return
		}
		if len(got.Actions()) != 63 {
			t.Fatalf("accepted table with %d actions", len(got.Actions()))
		}
		for _, r := range got.rows {
			if !inTestBounds(r.s) {
				t.Fatalf("accepted state %+v", r.s)
			}
		}
		union := got.States()
		for _, r := range tab.rows {
			if got.Row(r.s) == nil {
				union++
			}
		}
		if over.States() != union {
			t.Fatalf("overlay holds %d states, want the union of %d stored and %d base", over.States(), got.States(), tab.States())
		}
		for _, r := range over.rows {
			want := got.Row(r.s)
			if want == nil {
				want = tab.Row(r.s)
			}
			if !bitsEqual(r.q, want) {
				t.Fatalf("overlay row %+v = %v, want %v", r.s, r.q, want)
			}
		}
	})
}

// The bounds of the tables the tests build: the paper's 21 power
// levels (a 5% step) and 10 load levels.
const testPowerLevels, testLoadLevels = 21, 10

// newTestTable returns an empty table with the paper's parameters and
// the test bounds.
func newTestTable(t testing.TB) *Table {
	t.Helper()
	tab, err := NewTable(DefaultLearningRate, DefaultDiscount, testPowerLevels, testLoadLevels)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// inTestBounds reports whether s lies within the test bounds.
func inTestBounds(s State) bool {
	return s.PowerLevel >= 0 && s.PowerLevel < testPowerLevels &&
		s.LoadLevel >= 0 && s.LoadLevel < testLoadLevels &&
		s.Degraded >= 0 && s.Degraded < DegradedLevels
}

// bitsEqual reports whether a and b hold bitwise-equal values.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameTable fails unless a and b hold the same parameters, the same
// rows in the same order and bit-identical Q values.
func sameTable(t *testing.T, a, b *Table) {
	t.Helper()
	if math.Float64bits(a.alpha) != math.Float64bits(b.alpha) || math.Float64bits(a.gamma) != math.Float64bits(b.gamma) ||
		a.powerLevels != b.powerLevels || a.loadLevels != b.loadLevels ||
		len(a.rows) != len(b.rows) || !slices.Equal(a.idx, b.idx) {
		t.Fatalf("tables differ: alpha %v/%v gamma %v/%v rows %d/%d", a.alpha, b.alpha, a.gamma, b.gamma, len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		ra, rb := &a.rows[i], &b.rows[i]
		if ra.s != rb.s || b.idx[b.pos(ra.s)] != i {
			t.Fatalf("row %d: state %+v, want %+v", i, ra.s, rb.s)
		}
		for k := range ra.q {
			if math.Float64bits(ra.q[k]) != math.Float64bits(rb.q[k]) {
				t.Fatalf("Q(%+v, %d) = %v, want %v", ra.s, k, ra.q[k], rb.q[k])
			}
		}
	}
}

// sameRows fails unless a and b hold the same parameters and states
// with bit-identical Q values, whatever order their rows were made in.
func sameRows(t *testing.T, a, b *Table) {
	t.Helper()
	if math.Float64bits(a.alpha) != math.Float64bits(b.alpha) || math.Float64bits(a.gamma) != math.Float64bits(b.gamma) ||
		a.States() != b.States() {
		t.Fatalf("tables differ: alpha %v/%v gamma %v/%v states %d/%d", a.alpha, b.alpha, a.gamma, b.gamma, a.States(), b.States())
	}
	for _, r := range a.rows {
		if !bitsEqual(r.q, b.Row(r.s)) {
			t.Fatalf("row %+v = %v, want %v", r.s, r.q, b.Row(r.s))
		}
	}
}

// refWriteJSON is the reflection encoder WriteJSON replaced: tableJSON
// through json.Encoder with SetIndent, states sorted by (power, load,
// degraded). A non-nil base drops the rows it holds with bitwise-equal
// values, as AppendJSON does.
func refWriteJSON(t *Table, base *Table, w io.Writer) error {
	out := tableJSON{
		Alpha:   t.alpha,
		Gamma:   t.gamma,
		Actions: len(t.actions),
		First:   t.actions[0].String(),
		Last:    t.actions[len(t.actions)-1].String(),
	}
	for _, r := range t.rows {
		if base != nil && base.Row(r.s) != nil && bitsEqual(base.Row(r.s), r.q) {
			continue
		}
		out.States = append(out.States, stateJSON{
			PowerLevel: r.s.PowerLevel,
			LoadLevel:  r.s.LoadLevel,
			Degraded:   r.s.Degraded,
			Q:          append([]float64(nil), r.q...),
		})
	}
	sort.Slice(out.States, func(i, j int) bool {
		a, b := out.States[i], out.States[j]
		if a.PowerLevel != b.PowerLevel {
			return a.PowerLevel < b.PowerLevel
		}
		if a.LoadLevel != b.LoadLevel {
			return a.LoadLevel < b.LoadLevel
		}
		return a.Degraded < b.Degraded
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkEncoding compares AppendJSON with json.Marshal of the reference
// output as a json.RawMessage (the bytes a snapshot embedding the
// table writes), both whole and against base, and WriteJSON with the
// reference output itself, errors included.
func checkEncoding(t *testing.T, tab, base *Table, step int) {
	t.Helper()
	for _, against := range []*Table{nil, base} {
		var ref bytes.Buffer
		refErr := refWriteJSON(tab, against, &ref)
		var want []byte
		if refErr == nil {
			var err error
			if want, err = json.Marshal(json.RawMessage(ref.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		got, err := tab.AppendJSON([]byte("prefix"), against)
		if errText(err) != errText(refErr) {
			t.Fatalf("step %d: AppendJSON error %q, want %q", step, errText(err), errText(refErr))
		}
		if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("step %d: AppendJSON\n got %s\nwant prefix%s", step, got, want)
		}
		if against != nil {
			continue
		}
		var out bytes.Buffer
		err = tab.WriteJSON(&out)
		if errText(err) != errText(refErr) {
			t.Fatalf("step %d: WriteJSON error %q, want %q", step, errText(err), errText(refErr))
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("step %d: WriteJSON\n got %s\nwant %s", step, out.Bytes(), ref.Bytes())
		}
	}
}

// fuzzValues are the floats encoding/json renders at a format edge, or
// rejects.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, -1e-300,
	1e-7, 9.999999999999999e-7, 1e-6, -1e-6, 0.1, 1, -2.5,
	123456789.125, 1e20, 9.999999999999999e20, 1e21, -1e21, 1.7976931348623157e308,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// FuzzTableEncoding drives a table through random Seed, Update and
// ReadJSON steps and checks its encoders against the reference after
// every step, so a row whose cached encoding went stale shows at once.
// Each read-back also clones the table as the base later steps encode
// against, and checks the clone's own encoding, so a clone sharing a
// row's cached bytes with its source shows too.
// A model of the values written checks that each write lands in its
// own row and cell: Seed's value as given, Update's as the table
// computed it, and a write to a state outside the table's 2 power and
// 3 load levels nowhere.
// Each step reads four bytes: the operation, a state, an action and a
// value, which picks an edge value or takes a float from the next
// eight bytes.
func FuzzTableEncoding(f *testing.F) {
	f.Add([]byte{})
	// Edge values into new and existing rows, a read-back, then a NaN
	// seeded and overwritten, and ±Inf learned into a degraded row.
	f.Add([]byte{
		0, 0x15, 2, 0x81, 0, 0x15, 7, 0x82, 0, 0x05, 1, 0x85, 0, 0x2a, 4, 0x8f,
		3, 0, 0, 0x80, 2, 0x15, 5, 0x84, 1, 0x05, 3, 0x86,
		0, 0x05, 1, 0x92, 0, 0x15, 9, 0x80, 0, 0x05, 1, 0x80, 3, 0, 0, 0x80,
		1, 0x3b, 4, 0x93, 1, 0x3b, 4, 0x94, 0, 0x3b, 5, 0x80,
	})
	// A raw float64 value (1/3) taken from the input.
	f.Add([]byte{0, 0x06, 3, 0x00, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, 3, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, in []byte) {
		const powerLevels, loadLevels = 2, 3
		tab, err := NewTable(DefaultLearningRate, DefaultDiscount, powerLevels, loadLevels)
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewTable(DefaultLearningRate, DefaultDiscount, powerLevels, loadLevels)
		if err != nil {
			t.Fatal(err)
		}
		checkEncoding(t, tab, base, -1)
		model := map[State][]float64{}
		set := func(s State, a int, v float64) {
			if a < 0 || a >= len(tab.actions) ||
				s.PowerLevel < 0 || s.PowerLevel >= powerLevels || s.LoadLevel < 0 || s.LoadLevel >= loadLevels {
				return
			}
			if model[s] == nil {
				model[s] = make([]float64, len(tab.actions))
			}
			model[s][a] = v
		}
		learned := func(s State, a int) {
			if row := tab.Row(s); row != nil && a >= 0 && a < len(row) {
				set(s, a, row[a])
			}
		}
		for step := 0; len(in) >= 4; step++ {
			op, st, a, v := in[0], in[1], int(in[2]), in[3]
			in = in[4:]
			s := State{PowerLevel: int(st&3) - 1, LoadLevel: int(st>>2&3) - 1, Degraded: int(st >> 4 & 3)}
			val := fuzzValues[int(v&0x7f)%len(fuzzValues)]
			if v&0x80 == 0 && len(in) >= 8 {
				val = math.Float64frombits(binary.LittleEndian.Uint64(in))
				in = in[8:]
			}
			switch op % 4 {
			case 0:
				tab.Seed(s, a-1, val)
				set(s, a-1, val)
			case 1:
				tab.Update(s, a, val, State{PowerLevel: s.LoadLevel, LoadLevel: s.PowerLevel})
				learned(s, a)
			case 2:
				// A write followed by another before any snapshot.
				a %= len(tab.actions)
				tab.Seed(s, a, val)
				set(s, a, val)
				tab.Update(s, (a+1)%len(tab.actions), 1, s)
				learned(s, (a+1)%len(tab.actions))
			case 3:
				// Both encodings re-read onto an empty table to the
				// same table, and the encoding against base overlays
				// onto base to it.
				var buf bytes.Buffer
				if tab.WriteJSON(&buf) == nil {
					compact, err := tab.AppendJSON(nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					diff, err := tab.AppendJSON(nil, base)
					if err != nil {
						t.Fatal(err)
					}
					empty, err := NewTable(DefaultLearningRate, DefaultDiscount, powerLevels, loadLevels)
					if err != nil {
						t.Fatal(err)
					}
					back, err := ReadJSON(compact, empty)
					if err != nil {
						t.Fatalf("step %d: ReadJSON: %v", step, err)
					}
					indented, err := ReadJSON(buf.Bytes(), empty)
					if err != nil {
						t.Fatalf("step %d: indented ReadJSON: %v", step, err)
					}
					over, err := ReadJSON(diff, base)
					if err != nil {
						t.Fatalf("step %d: ReadJSON against base: %v", step, err)
					}
					sameTable(t, back, indented)
					sameRows(t, over, back)
					base, tab = tab.Clone(), back
				}
			}
			checkEncoding(t, tab, base, step)
			checkEncoding(t, base, nil, step)
			if tab.States() != len(model) {
				t.Fatalf("step %d: %d states, want %d", step, tab.States(), len(model))
			}
			for s, want := range model {
				for a, v := range tab.Row(s) {
					if math.Float64bits(v) != math.Float64bits(want[a]) {
						t.Fatalf("step %d: Q(%+v, %d) = %v, want %v", step, s, a, v, want[a])
					}
				}
			}
		}
	})
}
