package sim

import (
	"encoding/json"
	"slices"

	"greensprint/internal/jsonw"
)

// appendJSON appends the bytes json.Marshal writes for c: members in
// field order under their omitempty rules, records through
// appendRecord, the small component snapshots through appendMarshal.
// It reports false, with b's contents unspecified, at the first value
// only encoding/json renders faithfully.
func (c *Checkpoint) appendJSON(b []byte) ([]byte, bool) {
	if len(c.Strategy) > 0 && !jsonw.IsCompact(c.Strategy) {
		return b, false
	}
	// Size b once: the strategy state dominates, a record takes up to
	// about 380 bytes.
	w := jsonw.Writer{B: slices.Grow(b, len(c.Strategy)+len(c.Records)*384+4096), OK: true}
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
	return append(w.B, '}'), w.OK
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
