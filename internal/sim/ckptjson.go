package sim

import (
	"encoding/json"
	"slices"
	"strconv"
	"time"

	"greensprint/internal/units"
)

// appendJSON appends the bytes json.Marshal writes for c: members in
// field order under their omitempty rules, records through
// ckptWriter.record, the small component snapshots marshalled and
// spliced in. It reports false, with b's contents unspecified, at the
// first value only encoding/json renders faithfully.
func (c *Checkpoint) appendJSON(b []byte) ([]byte, bool) {
	if len(c.Strategy) > 0 && !compactJSON(c.Strategy) {
		return b, false
	}
	// Size b once: the strategy state dominates, a record takes up to
	// about 380 bytes.
	w := ckptWriter{b: slices.Grow(b, len(c.Strategy)+len(c.Records)*384+4096), ok: true}
	w.int(`{"version":`, int64(c.Version))
	w.int(`,"epoch":`, int64(c.Epoch))
	w.time(`,"supply_start":`, c.SupplyStart)
	w.int(`,"epoch_index":`, int64(c.EpochIndex))
	if c.StrategyName != "" {
		w.string(`,"strategy_name":`, c.StrategyName)
	}
	w.marshal(`,"selector":`, &c.Selector)
	if c.Fleet != nil {
		w.marshal(`,"fleet":`, c.Fleet)
	}
	if c.Breaker != nil {
		w.marshal(`,"breaker":`, c.Breaker)
	}
	w.marshal(`,"load_predictor":`, &c.LoadPred)
	if len(c.Strategy) > 0 {
		w.b = append(append(w.b, `,"strategy":`...), c.Strategy...)
	}
	if c.Chaos != nil {
		w.marshal(`,"chaos":`, c.Chaos)
	}
	if c.FleetFingerprint != "" {
		w.string(`,"fleet_fingerprint":`, c.FleetFingerprint)
	}
	if c.ClassFleet != nil {
		w.marshal(`,"class_fleet":`, c.ClassFleet)
	}
	if len(c.ClassEnergyWh) > 0 {
		key := `,"class_energy_wh":[`
		for _, v := range c.ClassEnergyWh {
			w.float(key, v)
			key = ","
		}
		w.b = append(w.b, ']')
	}
	switch {
	case c.Records == nil:
		w.b = append(w.b, `,"records":null`...)
	case len(c.Records) == 0:
		w.b = append(w.b, `,"records":[]`...)
	default:
		key := `,"records":[`
		for i := range c.Records {
			w.record(key, &c.Records[i])
			key = ","
		}
		w.b = append(w.b, ']')
	}
	w.float(`,"burst_perf_sum":`, c.BurstPerfSum)
	w.int(`,"burst_epochs":`, int64(c.BurstEpochs))
	return append(w.b, '}'), w.ok
}

// ckptWriter appends JSON members, each after its key; ok turns false
// at the first value the fast path does not render as encoding/json
// does.
type ckptWriter struct {
	b  []byte
	ok bool
}

// record appends the bytes json.Marshal writes for r.
func (w *ckptWriter) record(key string, r *EpochRecord) {
	w.b = append(w.b, key...)
	w.time(`{"Start":`, r.Start)
	w.b = strconv.AppendBool(append(w.b, `,"InBurst":`...), r.InBurst)
	w.int(`,"Case":`, int64(r.Case))
	w.int(`,"Config":{"Cores":`, int64(r.Config.Cores))
	w.float(`,"Freq":`, float64(r.Config.Freq))
	w.float(`},"Supply":`, float64(r.Supply))
	w.float(`,"Green":`, float64(r.Green))
	w.float(`,"Battery":`, float64(r.Battery))
	w.float(`,"Grid":`, float64(r.Grid))
	w.float(`,"Offered":`, r.Offered)
	w.float(`,"Goodput":`, r.Goodput)
	w.float(`,"NormPerf":`, r.NormPerf)
	w.float(`,"Latency":`, r.Latency)
	w.float(`,"SoC":`, r.SoC)
	w.float(`,"SprintFraction":`, r.SprintFraction)
	w.b = append(w.b, '}')
}

func (w *ckptWriter) int(key string, v int64) {
	w.b = strconv.AppendInt(append(w.b, key...), v, 10)
}

// float renders f as encoding/json does; NaN and ±Inf clear ok.
func (w *ckptWriter) float(key string, f float64) {
	var ok bool
	if w.b, ok = units.AppendJSONFloat(append(w.b, key...), f); !ok {
		w.ok = false
	}
}

// time renders t as time.Time.MarshalJSON does. ok clears where
// MarshalJSON fails: a year outside [0,9999] or a zone offset of 24
// hours or more.
func (w *ckptWriter) time(key string, t time.Time) {
	w.b = append(append(w.b, key...), '"')
	n := len(w.b)
	w.b = t.AppendFormat(w.b, time.RFC3339Nano)
	s := w.b[n:]
	w.b = append(w.b, '"')
	if s[len("9999")] != '-' {
		w.ok = false
	} else if s[len(s)-1] != 'Z' {
		hh := s[len(s)-len("07:00"):]
		if c := s[len(s)-len("Z07:00")]; '0' <= c && c <= '9' || (hh[0]-'0')*10+hh[1]-'0' >= 24 {
			w.ok = false
		}
	}
}

// string renders s when encoding/json copies it verbatim.
func (w *ckptWriter) string(key, s string) {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			w.ok = false
			return
		}
	}
	w.b = append(append(append(w.b, key...), '"'), s...)
	w.b = append(w.b, '"')
}

// marshal splices in v's json.Marshal encoding, the bytes
// encoding/json writes for v inside the checkpoint.
func (w *ckptWriter) marshal(key string, v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		w.ok = false
		return
	}
	w.b = append(append(w.b, key...), enc...)
}

// plainByte reports whether encoding/json copies byte c of a string
// verbatim: printable ASCII other than the quote, the backslash and
// the HTML-escaped <, > and &.
func plainByte(c byte) bool {
	return 0x20 <= c && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// maxCompactDepth bounds compactJSON's nesting; deeper values, which
// no snapshot writes, go to encoding/json.
const maxCompactDepth = 32

// compactJSON reports whether b is one JSON value that encoding/json
// copies unchanged into a document: valid, with no whitespace outside
// strings, strings of plain bytes only (no escapes, no non-ASCII), and
// nesting no deeper than maxCompactDepth. It is conservative: false
// only means "not proven", and json.Marshal then decides.
func compactJSON(b []byte) bool {
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
	if n := units.JSONNumberLen(b[i:]); n > 0 {
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
		case !plainByte(c):
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
