package rl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"greensprint/internal/server"
	"greensprint/internal/units"
)

// Persistence: a learned Q-table survives controller restarts by
// round-tripping through JSON. The serialized form pins the action
// space (the knob-space size and endpoints) so a table trained against
// one knob space cannot be silently loaded into another.

// tableJSON is the serialized form, as ReadJSON decodes it. AppendJSON
// writes the same form without reflection.
type tableJSON struct {
	Alpha   float64     `json:"alpha"`
	Gamma   float64     `json:"gamma"`
	Actions int         `json:"actions"`
	First   string      `json:"first_action"`
	Last    string      `json:"last_action"`
	States  []stateJSON `json:"states"`
}

type stateJSON struct {
	PowerLevel int `json:"power_level"`
	LoadLevel  int `json:"load_level"`
	// Degraded is the degraded-capacity level; omitted while zero so
	// tables written before (or without) chaos stay byte-identical.
	Degraded int       `json:"degraded,omitempty"`
	Q        []float64 `json:"q"`
}

// WriteJSON serializes the table: AppendJSON's compact form indented
// by two spaces, plus a trailing newline — the bytes json.Encoder with
// SetIndent("", "  ") writes for tableJSON.
func (t *Table) WriteJSON(w io.Writer) error {
	b, err := t.AppendJSON(nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// AppendJSON appends the table's compact serialized form to b: the
// bytes json.Marshal writes for tableJSON, states in (power, load,
// degraded) order, "states":null when no row exists. It re-encodes
// only the rows written since its last call and copies the cached
// encoding of every other row. A NaN or ±Inf value fails with
// encoding/json's own error for it, and b is then not returned.
func (t *Table) AppendJSON(b []byte) ([]byte, error) {
	if t.head == nil {
		head, err := t.appendHead(nil)
		if err != nil {
			return nil, err
		}
		t.head = head
	}
	if len(t.rows) == 0 {
		b = append(b, t.head...)
		return append(b, "null}"...), nil
	}
	// Bring every row's encoding up to date first, so b grows once to
	// the exact size instead of doubling through the copy.
	n := len(t.head) + len("[]}")
	for _, i := range t.order {
		r := &t.rows[i]
		if r.dirty {
			enc, err := r.appendJSON(r.enc[:0])
			if err != nil {
				return nil, err
			}
			r.enc, r.dirty = enc, false
		}
		n += len(r.enc) + len(",")
	}
	b = slices.Grow(b, n)
	b = append(b, t.head...)
	b = append(b, '[')
	for k, i := range t.order {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, t.rows[i].enc...)
	}
	return append(b, "]}"...), nil
}

// appendHead appends the members before the states: everything up to
// and including `"states":`.
func (t *Table) appendHead(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"alpha":`...)
	if b, err = appendFloat(b, t.alpha); err != nil {
		return nil, err
	}
	b = append(b, `,"gamma":`...)
	if b, err = appendFloat(b, t.gamma); err != nil {
		return nil, err
	}
	b = append(b, `,"actions":`...)
	b = strconv.AppendInt(b, int64(len(t.actions)), 10)
	// Marshalling a string cannot fail.
	first, _ := json.Marshal(t.actions[0].String())
	last, _ := json.Marshal(t.actions[len(t.actions)-1].String())
	b = append(b, `,"first_action":`...)
	b = append(b, first...)
	b = append(b, `,"last_action":`...)
	b = append(b, last...)
	return append(b, `,"states":`...), nil
}

// appendJSON appends the row's serialized stateJSON entry.
func (r *qRow) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"power_level":`...)
	b = strconv.AppendInt(b, int64(r.s.PowerLevel), 10)
	b = append(b, `,"load_level":`...)
	b = strconv.AppendInt(b, int64(r.s.LoadLevel), 10)
	if r.s.Degraded != 0 {
		b = append(b, `,"degraded":`...)
		b = strconv.AppendInt(b, int64(r.s.Degraded), 10)
	}
	b = append(b, `,"q":[`...)
	for i, v := range r.q {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, v); err != nil {
			return nil, err
		}
	}
	return append(b, "]}"...), nil
}

// appendFloat appends f in encoding/json's form, or returns the error
// encoding/json gives for it.
func appendFloat(b []byte, f float64) ([]byte, error) {
	b, ok := units.AppendJSONFloat(b, f)
	if !ok {
		_, err := json.Marshal(f)
		return nil, err
	}
	return b, nil
}

// ReadJSON decodes a table written by AppendJSON or WriteJSON. It
// fails if the serialized action space does not match the current knob
// space or a state lies outside the quantizers' range (State.Valid).
// AppendJSON's compact form is parsed in one pass by ReadCanonical;
// anything else goes through encoding/json, which gives every error.
func ReadJSON(b []byte) (*Table, error) {
	if t, n := ReadCanonical(b); t != nil && n == len(b) {
		return t, nil
	}
	return readJSON(b)
}

// readJSON is ReadJSON through encoding/json.
func readJSON(b []byte) (*Table, error) {
	var in tableJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("rl: decode table: %w", err)
	}
	t, err := NewTable(in.Alpha, in.Gamma)
	if err != nil {
		return nil, fmt.Errorf("rl: stored table invalid: %w", err)
	}
	if in.Actions != len(t.actions) ||
		in.First != server.Normal().String() ||
		in.Last != server.MaxSprint().String() {
		return nil, fmt.Errorf("rl: stored action space (%d, %s..%s) does not match the knob space (%d, %s..%s)",
			in.Actions, in.First, in.Last,
			len(t.actions), server.Normal(), server.MaxSprint())
	}
	for _, s := range in.States {
		st := State{PowerLevel: s.PowerLevel, LoadLevel: s.LoadLevel, Degraded: s.Degraded}
		if !st.Valid() {
			return nil, fmt.Errorf("rl: stored state %+v is outside the quantizers' range", st)
		}
		if len(s.Q) != len(t.actions) {
			return nil, fmt.Errorf("rl: state (%d,%d) has %d Q values, want %d",
				s.PowerLevel, s.LoadLevel, len(s.Q), len(t.actions))
		}
		copy(t.row(st).q, s.Q)
	}
	return t, nil
}

// ReadCanonical parses the compact table AppendJSON writes at the
// start of b, values straight into rows, and returns the table and
// the number of bytes it spans. Anything off that shape — whitespace,
// unknown, reordered or escaped keys and names, exponent-form
// integers, "q":null — or a table ReadJSON rejects yields a nil table.
// Whatever it accepts, encoding/json decodes to the same table, bit
// for bit: both parse floats with strconv.ParseFloat and fill rows in
// input order.
func ReadCanonical(b []byte) (*Table, int) {
	r := tableReader{b: b, ok: true}
	r.lit(`{"alpha":`)
	alpha := r.float()
	r.lit(`,"gamma":`)
	gamma := r.float()
	r.lit(`,"actions":`)
	actions := r.int()
	r.lit(`,"first_action":"`)
	r.lit(server.Normal().String())
	r.lit(`","last_action":"`)
	r.lit(server.MaxSprint().String())
	r.lit(`","states":`)
	if !r.ok {
		return nil, 0
	}
	t, err := NewTable(alpha, gamma)
	if err != nil || actions != len(t.actions) {
		return nil, 0
	}
	if !r.skip("null") && !r.skip("[]") {
		r.lit("[")
		for more := true; more; more = r.skip(",") {
			var s State
			r.lit(`{"power_level":`)
			s.PowerLevel = r.int()
			r.lit(`,"load_level":`)
			s.LoadLevel = r.int()
			if r.skip(`,"degraded":`) {
				s.Degraded = r.int()
			}
			r.lit(`,"q":[`)
			if !r.ok || !s.Valid() {
				return nil, 0
			}
			q := t.row(s).q
			for k := range q {
				if k > 0 {
					r.lit(",")
				}
				q[k] = r.float()
			}
			r.lit("]}")
		}
		r.lit("]")
	}
	r.lit("}")
	if !r.ok {
		return nil, 0
	}
	return t, r.i
}

// tableReader walks b from i; ok turns false at the first byte off
// the shape its caller expects, and every later call then fails too.
type tableReader struct {
	b  []byte
	i  int
	ok bool
}

// skip consumes s if b continues with it.
func (r *tableReader) skip(s string) bool {
	if r.ok && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// lit consumes s, which b must continue with.
func (r *tableReader) lit(s string) {
	if !r.skip(s) {
		r.ok = false
	}
}

// number consumes a JSON number and returns its bytes.
func (r *tableReader) number() []byte {
	if !r.ok {
		return nil
	}
	n := units.JSONNumberLen(r.b[r.i:])
	if n == 0 {
		r.ok = false
		return nil
	}
	r.i += n
	return r.b[r.i-n : r.i]
}

// float consumes a number as encoding/json decodes it into a float64.
func (r *tableReader) float() float64 {
	tok := r.number()
	if !r.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.ok = false
	}
	return f
}

// int consumes a number as encoding/json decodes it into an int; a
// fraction or an exponent fails, as there.
func (r *tableReader) int() int {
	tok := r.number()
	if !r.ok {
		return 0
	}
	v, err := strconv.Atoi(string(tok))
	if err != nil {
		r.ok = false
	}
	return v
}
