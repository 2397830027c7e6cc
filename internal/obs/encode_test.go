package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONLEncoding checks that JSONL writes exactly the bytes
// json.Encoder writes for any event, that the reflection-free encoder
// agrees with it whenever it accepts an event, and that non-finite
// floats fail with encoding/json's own error.
func FuzzJSONLEncoding(f *testing.F) {
	for _, ev := range encodingSeeds() {
		data := marshalFuzzEvent(&ev)
		var back Event
		walkEvent(&fuzzReader{b: data}, &back)
		if !bytes.Equal(marshalFuzzEvent(&back), data) {
			f.Fatalf("seed %+v does not survive the fuzz byte codec", ev)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev Event
		walkEvent(&fuzzReader{b: data}, &ev)

		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(ev)
		var got bytes.Buffer
		gotErr := NewJSONL(&got).Emit(ev)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("Emit error %v, json.Encoder error %v", gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Emit wrote\n%s\njson.Encoder wrote\n%s", got.Bytes(), want.Bytes())
		}
		if fast, ok := appendEvent(nil, &ev); ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted an event json.Encoder rejects (%v)", wantErr)
			}
			if !bytes.Equal(fast, want.Bytes()) {
				t.Fatalf("fast path wrote\n%s\njson.Encoder wrote\n%s", fast, want.Bytes())
			}
		}
	})
}

// TestJSONLFastPathTakesPlainEvents pins that the events the engines
// emit — ASCII names, finite floats — never need the fallback.
func TestJSONLFastPathTakesPlainEvents(t *testing.T) {
	seeds := encodingSeeds()
	for _, ev := range []Event{sampleEvent(3), seeds[len(seeds)-2], seeds[len(seeds)-1]} {
		if _, ok := appendEvent(nil, &ev); !ok {
			t.Errorf("fast path fell back on %+v", ev)
		}
	}
}

// encodingSeeds covers the rules the fast encoder copies from
// encoding/json. The last two entries are a chaos and a fleet event.
func encodingSeeds() []Event {
	negZero := math.Copysign(0, -1)
	// One event per string needing care, so the fallback decision for
	// each character is exercised on its own.
	var strs []Event
	for _, s := range []string{"a&b", "a<b", "a>b", `a"b`, `a\b`, "a\nb", "a\x01b", "a\x7fb", "é", "\u2028", "\xff", "plain ASCII ~!"} {
		strs = append(strs, Event{Case: "green-only", Config: s})
	}
	return append(strs, []Event{
		sampleEvent(0),
		{},
		// -0 where it is printed, and in omitempty fields (omitted).
		{Epoch: -1, EpochSeconds: negZero, GreenSupplyW: negZero, ServerPowerW: negZero, BudgetW: negZero, SoC: negZero},
		// The 'e' form below 1e-6 and at or above 1e21, with and
		// without exponent clean-up.
		{EpochSeconds: 1e-7, GreenSupplyW: 9.99e-7, OfferedRate: 1e-6, Goodput: 5e-324, LatencySec: -1e-300,
			ServerPowerW: 1e21, BudgetW: 9.999999999999999e20, PredictedGreenW: -1e21, DemandW: math.MaxFloat64,
			SprintFraction: 1.5e-10, GreenW: 123456789.125, BatteryW: 1e20, GridW: -2.5e-7, SoC: 0.1 + 0.2},
		// Strings encoding/json escapes, and text it copies through.
		{Time: "<a>&b", Strategy: `quo"te\back`, Case: "tab\tnew\nline\x00\x1f", Config: "héllo 世界",
			ChaosDetail: "bad\xffutf8\xc3", ChaosMode: "  ", Chaos: "\x7f"},
		// Non-finite floats: json.Encoder's UnsupportedValueError.
		{LatencySec: math.NaN()},
		{Goodput: math.Inf(1)},
		{BudgetW: math.Inf(-1)},
		{Classes: []ClassStat{{Name: "x", EnergyWh: math.NaN()}}},
		{Epoch: 12, Time: "2024-06-01T10:05:00Z", EpochSeconds: 300, Strategy: "Hybrid", Servers: 10,
			Chaos: "fault", ChaosMode: "server-crash", ChaosTarget: 3, ChaosDetail: "server-crash target=3 epochs=[12,40)"},
		{Epoch: 7, EpochSeconds: 300, Strategy: "Hybrid", Servers: 10000, Alive: 9990, InBurst: true,
			Case: "green+battery", Config: "12c@2.0GHz", Sprinting: true, SprintFraction: 1, SoC: 0.5,
			Classes: []ClassStat{{Name: "web", Alive: 6000, Goodput: 1.25e6, EnergyWh: 3.5},
				{Name: "db", Alive: 0, Goodput: 0, EnergyWh: 0}}},
	}...)
}

// eventCodec visits an Event's fields in a fixed order; fuzzReader
// fills them from fuzz bytes and fuzzWriter turns a seed event into
// the bytes that read back as it.
type eventCodec interface {
	int(*int)
	float(*float64)
	bool(*bool)
	string(*string)
}

func walkEvent(c eventCodec, ev *Event) {
	c.int(&ev.Epoch)
	c.string(&ev.Time)
	c.float(&ev.EpochSeconds)
	c.string(&ev.Strategy)
	c.int(&ev.Servers)
	c.int(&ev.Alive)
	c.bool(&ev.InBurst)
	for _, f := range []*float64{&ev.GreenSupplyW, &ev.OfferedRate, &ev.Goodput, &ev.LatencySec, &ev.ServerPowerW} {
		c.float(f)
	}
	c.string(&ev.Case)
	c.string(&ev.Config)
	c.bool(&ev.Sprinting)
	for _, f := range []*float64{&ev.BudgetW, &ev.PredictedGreenW, &ev.PredictedRate, &ev.DemandW, &ev.SprintFraction,
		&ev.GreenW, &ev.BatteryW, &ev.GridW, &ev.SoC, &ev.BatteryCycles, &ev.BreakerStress} {
		c.float(f)
	}
	c.bool(&ev.QoSViolation)
	c.string(&ev.Chaos)
	c.string(&ev.ChaosMode)
	c.int(&ev.ChaosTarget)
	c.string(&ev.ChaosDetail)
	n := len(ev.Classes)
	c.int(&n)
	if n < 0 || n > 8 {
		n = 0
	}
	if len(ev.Classes) != n {
		ev.Classes = make([]ClassStat, n)
	}
	for i := range ev.Classes {
		cl := &ev.Classes[i]
		c.string(&cl.Name)
		c.int(&cl.Alive)
		c.float(&cl.Goodput)
		c.float(&cl.EnergyWh)
	}
}

type fuzzReader struct{ b []byte }

func (r *fuzzReader) u64() uint64 {
	var w [8]byte
	n := copy(w[:], r.b)
	r.b = r.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) int(v *int)       { *v = int(int64(r.u64())) }
func (r *fuzzReader) float(v *float64) { *v = math.Float64frombits(r.u64()) }
func (r *fuzzReader) bool(v *bool)     { *v = r.byte()&1 == 1 }

func (r *fuzzReader) string(v *string) {
	n := min(int(r.byte()), len(r.b))
	*v = string(r.b[:n])
	r.b = r.b[n:]
}

type fuzzWriter struct{ b []byte }

func (w *fuzzWriter) int(v *int) { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(*v)) }
func (w *fuzzWriter) float(v *float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(*v))
}

func (w *fuzzWriter) bool(v *bool) {
	var c byte
	if *v {
		c = 1
	}
	w.b = append(w.b, c)
}

func (w *fuzzWriter) string(v *string) {
	w.b = append(w.b, byte(len(*v)))
	w.b = append(w.b, *v...)
}

func marshalFuzzEvent(ev *Event) []byte {
	w := &fuzzWriter{}
	walkEvent(w, ev)
	return w.b
}
