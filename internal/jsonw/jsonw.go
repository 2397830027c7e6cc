// Package jsonw writes JSON without reflection, byte for byte as
// encoding/json does, for the hand-written encoders of the event log
// (obs), the checkpoint (sim) and the Q-table (rl and strategy). It
// owns encoding/json's rules for floats, strings, times, compact
// values and the number grammar; each caller owns its schema (member
// order, omitempty) and falls back to encoding/json wherever a Writer
// clears OK or IsCompact cannot prove a value.
package jsonw

import (
	"math"
	"strconv"
	"time"
)

// Writer appends JSON members to B, each value after its key; a key
// carries its own punctuation, such as `,"soc":`. OK turns false at
// the first value encoding/json would write differently or reject;
// B's contents are then unspecified.
type Writer struct {
	B  []byte
	OK bool
}

// Int appends v.
func (w *Writer) Int(key string, v int64) {
	w.B = strconv.AppendInt(append(w.B, key...), v, 10)
}

// OmitInt appends v unless it is zero, as omitempty does.
func (w *Writer) OmitInt(key string, v int64) {
	if v != 0 {
		w.Int(key, v)
	}
}

// Float appends f as encoding/json renders a float64: the shortest 'f'
// form, or the 'e' form outside [1e-6, 1e21) with a single-digit
// negative exponent unpadded (e-07 → e-7). NaN and ±Inf, which
// encoding/json rejects, clear OK.
func (w *Writer) Float(key string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.OK = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(append(w.B, key...), f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.B = b
}

// OmitFloat appends f unless it is zero, including -0, as omitempty
// does.
func (w *Writer) OmitFloat(key string, f float64) {
	if f != 0 {
		w.Float(key, f)
	}
}

// String appends s when encoding/json copies it verbatim, every byte
// plain; any other string clears OK.
func (w *Writer) String(key, s string) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			w.OK = false
			return
		}
	}
	w.B = append(append(append(w.B, key...), '"'), s...)
	w.B = append(w.B, '"')
}

// OmitString appends s unless it is empty, as omitempty does.
func (w *Writer) OmitString(key, s string) {
	if s != "" {
		w.String(key, s)
	}
}

// Bool appends v.
func (w *Writer) Bool(key string, v bool) {
	w.B = strconv.AppendBool(append(w.B, key...), v)
}

// OmitBool appends true; false is omitted, as omitempty does.
func (w *Writer) OmitBool(key string, v bool) {
	if v {
		w.Bool(key, v)
	}
}

// Time appends t as time.Time.MarshalJSON renders it. OK clears where
// MarshalJSON fails: a year outside [0,9999] or a zone offset of 24
// hours or more.
func (w *Writer) Time(key string, t time.Time) {
	w.B = append(append(w.B, key...), '"')
	n := len(w.B)
	w.B = t.AppendFormat(w.B, time.RFC3339Nano)
	s := w.B[n:]
	w.B = append(w.B, '"')
	if s[len("9999")] != '-' {
		w.OK = false
	} else if s[len(s)-1] != 'Z' {
		hh := s[len(s)-len("07:00"):]
		if c := s[len(s)-len("Z07:00")]; '0' <= c && c <= '9' || (hh[0]-'0')*10+hh[1]-'0' >= 24 {
			w.OK = false
		}
	}
}

// plain reports whether encoding/json copies byte c of a string
// verbatim: printable ASCII other than the quote, the backslash and
// the HTML-escaped <, > and &.
func plain(c byte) bool {
	return 0x20 <= c && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// maxCompactDepth bounds IsCompact's nesting; deeper values go to
// encoding/json.
const maxCompactDepth = 32

// IsCompact reports whether b is one JSON value that encoding/json
// copies unchanged into a document: valid, with no whitespace outside
// strings, strings of plain bytes only (no escapes, no non-ASCII), and
// nesting no deeper than maxCompactDepth. It is conservative: false
// only means "not proven", and encoding/json then decides.
func IsCompact(b []byte) bool {
	return scanValue(b, 0, 0) == len(b)
}

// scanValue returns the index just past the value starting at b[i], or
// -1 when it cannot prove one there.
func scanValue(b []byte, i, depth int) int {
	if i >= len(b) || depth > maxCompactDepth {
		return -1
	}
	switch c := b[i]; c {
	case '{', '[':
		i++
		if i < len(b) && b[i] == c+2 { // '{'+2 is '}', '['+2 is ']'
			return i + 1
		}
		for {
			if c == '{' {
				if i = scanString(b, i); i < 0 || i >= len(b) || b[i] != ':' {
					return -1
				}
				i++
			}
			if i = scanValue(b, i, depth+1); i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i++
			case c + 2:
				return i + 1
			default:
				return -1
			}
		}
	case '"':
		return scanString(b, i)
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	}
	if n := numberLen(b[i:]); n > 0 {
		return i + n
	}
	return -1
}

// scanString returns the index just past the plain string starting at
// b[i], or -1.
func scanString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case !plain(c):
			return -1
		}
	}
	return -1
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
		return i + len(lit)
	}
	return -1
}

// numberLen returns the length of the JSON number at the start of b —
// an optional minus, an integer part without leading zeros, then an
// optional fraction and exponent — or 0 when b does not start with
// one. It checks the grammar only; the bytes after the number are the
// caller's.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for ; i < len(b); i++ {
		if b[i]-'0' > 9 {
			break
		}
	}
	return i
}
