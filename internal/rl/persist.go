package rl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"greensprint/internal/jsonw"
	"greensprint/internal/server"
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
		head, err := t.encodeHead()
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

// encodeHead returns the members before the states, everything up to
// and including `"states":`, as json.Marshal writes them; a NaN rate
// fails with its error. AppendJSON encodes them once per table.
func (t *Table) encodeHead() ([]byte, error) {
	enc, err := json.Marshal(tableJSON{
		Alpha:   t.alpha,
		Gamma:   t.gamma,
		Actions: len(t.actions),
		First:   t.actions[0].String(),
		Last:    t.actions[len(t.actions)-1].String(),
	})
	if err != nil {
		return nil, err
	}
	return enc[:len(enc)-len("null}")], nil
}

// appendJSON appends the row's serialized stateJSON entry. A NaN or
// ±Inf value fails with encoding/json's error for it.
func (r *qRow) appendJSON(b []byte) ([]byte, error) {
	w := jsonw.Writer{B: b, OK: true}
	w.Int(`{"power_level":`, int64(r.s.PowerLevel))
	w.Int(`,"load_level":`, int64(r.s.LoadLevel))
	w.OmitInt(`,"degraded":`, int64(r.s.Degraded))
	w.B = append(w.B, `,"q":[`...)
	key := ""
	for _, v := range r.q {
		w.Float(key, v)
		key = ","
	}
	if !w.OK {
		_, err := json.Marshal(r.q)
		return nil, err
	}
	return append(w.B, "]}"...), nil
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
	r := jsonw.Reader{B: b, OK: true}
	r.Lit(`{"alpha":`)
	alpha := r.Float()
	r.Lit(`,"gamma":`)
	gamma := r.Float()
	r.Lit(`,"actions":`)
	actions := r.Int()
	r.Lit(`,"first_action":"`)
	r.Lit(server.Normal().String())
	r.Lit(`","last_action":"`)
	r.Lit(server.MaxSprint().String())
	r.Lit(`","states":`)
	if !r.OK {
		return nil, 0
	}
	t, err := NewTable(alpha, gamma)
	if err != nil || actions != len(t.actions) {
		return nil, 0
	}
	if !r.Skip("null") && !r.Skip("[]") {
		r.Lit("[")
		for more := true; more; more = r.Skip(",") {
			var s State
			r.Lit(`{"power_level":`)
			s.PowerLevel = r.Int()
			r.Lit(`,"load_level":`)
			s.LoadLevel = r.Int()
			if r.Skip(`,"degraded":`) {
				s.Degraded = r.Int()
			}
			r.Lit(`,"q":[`)
			if !r.OK || !s.Valid() {
				return nil, 0
			}
			q := t.row(s).q
			for k := range q {
				if k > 0 {
					r.Lit(",")
				}
				q[k] = r.Float()
			}
			r.Lit("]}")
		}
		r.Lit("]")
	}
	r.Lit("}")
	if !r.OK {
		return nil, 0
	}
	return t, r.I
}
