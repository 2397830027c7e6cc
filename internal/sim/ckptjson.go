package sim

import (
	"encoding/json"
	"math"
	"slices"

	"greensprint/internal/jsonw"
)

// appendJSON appends the bytes json.Marshal writes for c: members in
// field order under their omitempty rules, records through
// appendRecord, the small component snapshots through appendMarshal.
// It reports false, with b's contents unspecified, at the first value
// only encoding/json renders faithfully. With recs, c.cachedJSON(),
// the records' elements are left out: they belong at split, just after
// `"records":[`. Without recs, split is the length of the result.
func (c *Checkpoint) appendJSON(b, recs []byte) (out []byte, split int, ok bool) {
	if len(c.Strategy) > 0 && !jsonw.IsCompact(c.Strategy) {
		return b, 0, false
	}
	// Size b once: the strategy state and the records dominate, unless
	// the records' bytes are cached.
	n := len(c.Strategy) + 4096
	if recs == nil {
		n += len(c.Records) * recordJSONCap
	}
	w := jsonw.Writer{B: slices.Grow(b, n), OK: true}
	w.Int(`{"version":`, int64(c.Version))
	w.Int(`,"epoch":`, int64(c.Epoch))
	w.Time(`,"supply_start":`, c.SupplyStart)
	w.Int(`,"epoch_index":`, int64(c.EpochIndex))
	w.OmitString(`,"strategy_name":`, c.StrategyName)
	appendMarshal(&w, `,"selector":`, &c.Selector)
	if c.Fleet != nil {
		appendMarshal(&w, `,"fleet":`, c.Fleet)
	}
	if c.Breaker != nil {
		appendMarshal(&w, `,"breaker":`, c.Breaker)
	}
	appendMarshal(&w, `,"load_predictor":`, &c.LoadPred)
	if len(c.Strategy) > 0 {
		w.B = append(append(w.B, `,"strategy":`...), c.Strategy...)
	}
	if c.Chaos != nil {
		appendMarshal(&w, `,"chaos":`, c.Chaos)
	}
	w.OmitString(`,"fleet_fingerprint":`, c.FleetFingerprint)
	if c.ClassFleet != nil {
		appendMarshal(&w, `,"class_fleet":`, c.ClassFleet)
	}
	if len(c.ClassEnergyWh) > 0 {
		key := `,"class_energy_wh":[`
		for _, v := range c.ClassEnergyWh {
			w.Float(key, v)
			key = ","
		}
		w.B = append(w.B, ']')
	}
	switch {
	case recs != nil:
		w.B = append(w.B, `,"records":[`...)
		split = len(w.B)
		w.B = append(w.B, ']')
	case c.Records == nil:
		w.B = append(w.B, `,"records":null`...)
	case len(c.Records) == 0:
		w.B = append(w.B, `,"records":[]`...)
	default:
		key := `,"records":[`
		for i := range c.Records {
			appendRecord(&w, key, &c.Records[i])
			key = ","
		}
		w.B = append(w.B, ']')
	}
	w.Float(`,"burst_perf_sum":`, c.BurstPerfSum)
	w.Int(`,"burst_epochs":`, int64(c.BurstEpochs))
	w.B = append(w.B, '}')
	if recs == nil {
		split = len(w.B)
	}
	return w.B, split, w.OK
}

// recordJSONCap is about the most bytes appendRecord writes for one
// record, key included: the buffers are sized by it.
const recordJSONCap = 384

// recordLog is an engine's encoded record history: b holds the JSON of
// its first n records, comma-joined as the records member lists them.
// It only ever grows, so every view a Checkpoint holds stays valid;
// Restore drops it for a fresh one rather than rewrite it. It stops at
// the first record the hand encoder cannot write.
type recordLog struct {
	b []byte
	n int
}

// encodedRecords extends the record log by the records added since the
// last cut and returns capacity-clipped views of the records it was
// encoded from and of their JSON, so neither a later append to the log
// nor a caller's append to a view can write bytes a view covers. Both
// are nil while the log has stopped short of the records.
func (e *Engine) encodedRecords() (recs []EpochRecord, enc []byte) {
	l := &e.recLog
	if l.n < len(e.records) {
		w := jsonw.Writer{B: slices.Grow(l.b, (len(e.records)-l.n)*recordJSONCap), OK: true}
		for ; l.n < len(e.records); l.n++ {
			key := ","
			if l.n == 0 {
				key = ""
			}
			appendRecord(&w, key, &e.records[l.n])
			if !w.OK {
				return nil, nil // l.b keeps the records before l.n
			}
			l.b = w.B
		}
	}
	return e.records[:l.n:l.n], l.b[:len(l.b):len(l.b)]
}

// cachedJSON returns the cached encoding of c.Records when it was
// encoded from records equal to them bit for bit, and nil otherwise,
// so any edit to Records, down to a ±0 or a NaN payload, falls back to
// encoding them afresh.
func (c *Checkpoint) cachedJSON() []byte {
	if len(c.cache.json) == 0 || len(c.cache.recs) != len(c.Records) {
		return nil
	}
	for i := range c.Records {
		if !sameRecord(&c.Records[i], &c.cache.recs[i]) {
			return nil
		}
	}
	return c.cache.json
}

// sameRecord reports whether a and b are identical, floats compared by
// their bits and times by instant, location and monotonic reading.
func sameRecord(a, b *EpochRecord) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Start == b.Start && a.InBurst == b.InBurst && a.Case == b.Case && a.Config.Cores == b.Config.Cores &&
		same(float64(a.Config.Freq), float64(b.Config.Freq)) && same(float64(a.Supply), float64(b.Supply)) &&
		same(float64(a.Green), float64(b.Green)) && same(float64(a.Battery), float64(b.Battery)) &&
		same(float64(a.Grid), float64(b.Grid)) && same(a.Offered, b.Offered) && same(a.Goodput, b.Goodput) &&
		same(a.NormPerf, b.NormPerf) && same(a.Latency, b.Latency) && same(a.SoC, b.SoC) &&
		same(a.SprintFraction, b.SprintFraction)
}

// appendRecord appends the bytes json.Marshal writes for r.
func appendRecord(w *jsonw.Writer, key string, r *EpochRecord) {
	w.B = append(w.B, key...)
	w.Time(`{"Start":`, r.Start)
	w.Bool(`,"InBurst":`, r.InBurst)
	w.Int(`,"Case":`, int64(r.Case))
	w.Int(`,"Config":{"Cores":`, int64(r.Config.Cores))
	w.Float(`,"Freq":`, float64(r.Config.Freq))
	w.Float(`},"Supply":`, float64(r.Supply))
	w.Float(`,"Green":`, float64(r.Green))
	w.Float(`,"Battery":`, float64(r.Battery))
	w.Float(`,"Grid":`, float64(r.Grid))
	w.Float(`,"Offered":`, r.Offered)
	w.Float(`,"Goodput":`, r.Goodput)
	w.Float(`,"NormPerf":`, r.NormPerf)
	w.Float(`,"Latency":`, r.Latency)
	w.Float(`,"SoC":`, r.SoC)
	w.Float(`,"SprintFraction":`, r.SprintFraction)
	w.B = append(w.B, '}')
}

// appendMarshal splices in v's json.Marshal encoding, the bytes
// encoding/json writes for v inside the checkpoint.
func appendMarshal(w *jsonw.Writer, key string, v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		w.OK = false
		return
	}
	w.B = append(append(w.B, key...), enc...)
}
