package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// floatCases are the floats encoding/json renders at a format edge, or
// rejects.
var floatCases = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, -1e-300,
	1e-7, 9.999999999999999e-7, 1e-6, -1e-6, 0.1, 1, -2.5, -1.5e+300,
	123456789.125, 1e20, 9.999999999999999e20, 1e21, -1e21, 1.7976931348623157e308,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// checkFloat fails unless Float writes json.Marshal's bytes for f, or
// clears OK where json.Marshal fails.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	w := Writer{B: []byte("x"), OK: true}
	w.Float(`,"k":`, f)
	want, err := json.Marshal(f)
	if (err == nil) != w.OK {
		t.Fatalf("Float(%v): OK %v, json.Marshal error %v", f, w.OK, err)
	}
	if w.OK && string(w.B) != `x,"k":`+string(want) {
		t.Fatalf("Float(%v) = %s, want x,\"k\":%s", f, w.B, want)
	}
}

func TestFloat(t *testing.T) {
	for _, f := range floatCases {
		checkFloat(t, f)
	}
}

// TestWriterMatchesMarshal pins every member form, omitempty included,
// to json.Marshal of a struct with the same schema.
func TestWriterMatchesMarshal(t *testing.T) {
	type doc struct {
		I  int       `json:"i"`
		OI int       `json:"oi,omitempty"`
		F  float64   `json:"f"`
		OF float64   `json:"of,omitempty"`
		S  string    `json:"s"`
		OS string    `json:"os,omitempty"`
		B  bool      `json:"b"`
		OB bool      `json:"ob,omitempty"`
		T  time.Time `json:"t"`
	}
	for _, d := range []doc{
		{T: time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)},
		{I: -7, OI: 3, F: 1e-7, OF: math.Copysign(0, -1), S: "6c@1.2GHz", OS: "x y", B: true, OB: true,
			T: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -(23*3600+59*60)))},
		{OI: -1, OF: 2.5, T: time.Date(0, 1, 1, 0, 0, 0, 1, time.FixedZone("", 5*3600+1800))},
	} {
		w := Writer{OK: true}
		w.Int(`{"i":`, int64(d.I))
		w.OmitInt(`,"oi":`, int64(d.OI))
		w.Float(`,"f":`, d.F)
		w.OmitFloat(`,"of":`, d.OF)
		w.String(`,"s":`, d.S)
		w.OmitString(`,"os":`, d.OS)
		w.Bool(`,"b":`, d.B)
		w.OmitBool(`,"ob":`, d.OB)
		w.Time(`,"t":`, d.T)
		want, err := json.Marshal(d)
		if err != nil || !w.OK || string(append(w.B, '}')) != string(want) {
			t.Fatalf("Writer wrote %s (OK %v), json.Marshal %s (%v)", w.B, w.OK, want, err)
		}
	}
}

// TestWriterDeclines checks OK clears at each value encoding/json
// rejects or writes differently.
func TestWriterDeclines(t *testing.T) {
	for name, write := range map[string]func(w *Writer){
		"NaN":             func(w *Writer) { w.Float("", math.NaN()) },
		"omitted -Inf":    func(w *Writer) { w.OmitFloat("", math.Inf(-1)) },
		"HTML escape":     func(w *Writer) { w.String("", "A&B") },
		"quote":           func(w *Writer) { w.OmitString("", `say "hi"`) },
		"control":         func(w *Writer) { w.String("", "a\nb") },
		"non-ASCII":       func(w *Writer) { w.String("", "é") },
		"year 10000":      func(w *Writer) { w.Time("", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)) },
		"year -1":         func(w *Writer) { w.Time("", time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)) },
		"zone offset 24h": func(w *Writer) { w.Time("", time.Date(2018, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))) },
	} {
		w := Writer{OK: true}
		write(&w)
		if w.OK {
			t.Errorf("%s: Writer kept OK, wrote %s", name, w.B)
		}
	}
}

// TestCompactJSON checks the validator on the shapes it must prove and
// the ones it must leave to encoding/json.
func TestCompactJSON(t *testing.T) {
	for in, want := range map[string]bool{
		`{"a":[1,-2.5e-7,0,true,false,null,{}],"b":"x y","c":[]}`: true,
		`0`:           true,
		`{"a":1,}`:    false,
		`{"a" :1}`:    false,
		`[01]`:        false,
		`[1.]`:        false,
		`{"a":"\n"}`:  false,
		`{"a":"b&c"}`: false,
		"\"\u00e9\"":  false,
		`[1]x`:        false,
		``:            false,
		`nul`:         false,
		strings.Repeat("[", maxCompactDepth+1) + strings.Repeat("]", maxCompactDepth+1): true,
		strings.Repeat("[", maxCompactDepth+2) + strings.Repeat("]", maxCompactDepth+2): false,
	} {
		if got := IsCompact([]byte(in)); got != want {
			t.Errorf("IsCompact(%q) = %v, want %v", in, got, want)
		}
		checkCompact(t, []byte(in))
	}
}

// checkCompact fails if IsCompact accepts b where json.Valid rejects
// it, or where json.Compact or json.Marshal would not copy it
// unchanged.
func checkCompact(t *testing.T, b []byte) {
	t.Helper()
	if !IsCompact(b) {
		return
	}
	if !json.Valid(b) {
		t.Fatalf("IsCompact accepted invalid %q", b)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil || !bytes.Equal(buf.Bytes(), b) {
		t.Fatalf("IsCompact accepted %q, which json.Compact rewrites to %q (%v)", b, buf.Bytes(), err)
	}
	if out, err := json.Marshal(json.RawMessage(b)); err != nil || !bytes.Equal(out, b) {
		t.Fatalf("IsCompact accepted %q, which json.Marshal rewrites to %q (%v)", b, out, err)
	}
}

// TestNumberLen checks the number grammar: the length of the number
// at the head of the input, or 0.
func TestNumberLen(t *testing.T) {
	for in, want := range map[string]int{
		"0": 1, "-0": 2, "63": 2, "6.3e1": 5, "1e999": 5, "-2.5e-7,": 7, "1E+2]": 4, "0.5x": 3,
		"01": 1, "-": 0, "+1": 0, ".5": 0, "1.": 0, "1.e2": 0, "1e": 0, "1e+": 0, "": 0, "x": 0, "--1": 0,
	} {
		if got := numberLen([]byte(in)); got != want {
			t.Errorf("numberLen(%q) = %d, want %d", in, got, want)
		}
	}
}

// FuzzCodec checks the codec differentially against encoding/json:
// Float, String and Time write json.Marshal's bytes or clear OK where
// it fails or writes something else (and String declines no string
// of printable ASCII json.Marshal copies verbatim); IsCompact proves only values
// json.Valid accepts and json.Compact and json.Marshal copy unchanged.
func FuzzCodec(f *testing.F) {
	for i, x := range floatCases {
		f.Add([]byte(`{"a":[1,-2.5e-7,0,true,false,null,{}],"b":"x y","c":[]}`), x, int64(i)*1e9, int64(i), int32(0))
	}
	for _, in := range []string{"-0", "6.3e1", "1e999", "9223372036854775807", "9223372036854775808", "01", " 1", "null", "\"é\"", "A&B", "[1]x"} {
		f.Add([]byte(in), 1.5, int64(1525176000), int64(999999999), int32(5*3600+1800))
	}
	f.Add([]byte(`{"k":"<b>"}`), 1e21, int64(253402300800), int64(0), int32(0))
	f.Add([]byte(`[]`), -1e-7, int64(-62167219201), int64(-1), int32(-24*3600))
	f.Fuzz(func(t *testing.T, in []byte, x float64, sec, nsec int64, zone int32) {
		checkFloat(t, x)

		s := string(in)
		w := Writer{OK: true}
		w.String("", s)
		want, _ := json.Marshal(s)
		if w.OK && !bytes.Equal(w.B, want) {
			t.Fatalf("String(%q) = %s, json.Marshal %s", s, w.B, want)
		}
		if !w.OK && string(want) == `"`+s+`"` && printable(in) {
			t.Fatalf("String declined %q, which json.Marshal copies verbatim", s)
		}

		tm := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
		w = Writer{OK: true}
		w.Time("", tm)
		want, err := json.Marshal(tm)
		if (err == nil) != w.OK || w.OK && !bytes.Equal(w.B, want) {
			t.Fatalf("Time(%v) = %s (OK %v), json.Marshal %s (%v)", tm, w.B, w.OK, want, err)
		}

		checkCompact(t, in)
	})
}

func printable(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}
