package rl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
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

// WriteJSON serializes the whole table: AppendJSON's compact form
// indented by two spaces, plus a trailing newline — the bytes
// json.Encoder with SetIndent("", "  ") writes for tableJSON.
func (t *Table) WriteJSON(w io.Writer) error {
	b, err := t.AppendJSON(nil, nil)
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
// degraded) order, "states":null when it lists none. A nil base lists
// every row. Otherwise it lists only the rows base lacks and those
// whose values differ bitwise from base's, so ReadJSON with the same
// base gives t back. It re-encodes only the listed rows written since
// their last encoding and copies the cached encoding of the others. A
// listed NaN or ±Inf value fails with encoding/json's own error for
// it, and b is then not returned.
func (t *Table) AppendJSON(b []byte, base *Table) ([]byte, error) {
	if t.head == nil {
		head, err := t.encodeHead()
		if err != nil {
			return nil, err
		}
		t.head = head
	}
	b = append(b, t.head...)
	start := len(b)
	for _, i := range t.order {
		r := &t.rows[i]
		if base.holds(r) {
			continue
		}
		if r.dirty {
			enc, err := r.appendJSON(r.enc[:0])
			if err != nil {
				return nil, err
			}
			r.enc, r.dirty = enc, false
		}
		if len(b) == start {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = append(b, r.enc...)
	}
	if len(b) == start {
		return append(b, "null}"...), nil
	}
	return append(b, "]}"...), nil
}

// holds reports whether t, which may be nil, has r's state with
// bitwise-equal values.
func (t *Table) holds(r *qRow) bool {
	if t == nil {
		return false
	}
	i, ok := t.q[r.s]
	return ok && slices.EqualFunc(t.rows[i].q, r.q, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
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

// ReadJSON decodes a table AppendJSON or WriteJSON wrote against
// base: a copy of base, nil meaning empty, with each stored row
// overlaid. It fails if the serialized action space does not match the
// current knob space or a state lies outside the quantizers' range
// (State.Valid).
func ReadJSON(b []byte, base *Table) (*Table, error) {
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
	if base != nil {
		t.q, t.rows, t.order = base.cloneRows()
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

// Clone returns a deep copy of t. It only reads t, so one table that
// nothing writes may be cloned from several goroutines at once.
func (t *Table) Clone() *Table {
	c := *t
	c.q, c.rows, c.order = t.cloneRows()
	return &c
}

// cloneRows deep-copies t's rows, their Q values into one new array.
// The copies drop the cached encodings and are marked dirty: AppendJSON
// re-encodes a row in place through r.enc[:0], so a shared backing
// array would let one table overwrite the other's cached bytes.
func (t *Table) cloneRows() (map[State]int, []qRow, []int) {
	rows := slices.Clone(t.rows)
	vals := make([]float64, 0, len(rows)*len(t.actions))
	for i := range rows {
		r := &rows[i]
		n := len(vals)
		vals = append(vals, r.q...)
		r.q = vals[n:len(vals):len(vals)]
		r.enc, r.dirty = nil, true
	}
	return maps.Clone(t.q), rows, slices.Clone(t.order)
}
