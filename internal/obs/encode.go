package obs

import (
	"strconv"

	"greensprint/internal/units"
)

// appendEvent appends ev as one JSON line, byte-identical to what
// json.Encoder.Encode writes for it: fields in declaration order,
// omitempty honoured, floats in encoding/json's 'f'/'e' form. It
// reports false, with b's contents unspecified, when ev holds a value
// only encoding/json can render faithfully — a non-finite float (an
// error there) or a string that needs escaping — so the caller can
// fall back to the reflective encoder.
func appendEvent(b []byte, ev *Event) ([]byte, bool) {
	w := jsonWriter{b: b, ok: true}
	w.b = append(w.b, `{"epoch":`...)
	w.b = strconv.AppendInt(w.b, int64(ev.Epoch), 10)
	w.optString(`,"time":`, ev.Time)
	w.float(`,"epoch_seconds":`, ev.EpochSeconds)
	w.optString(`,"strategy":`, ev.Strategy)
	w.optInt(`,"servers":`, ev.Servers)
	w.optInt(`,"alive":`, ev.Alive)
	w.optBool(`,"in_burst":`, ev.InBurst)
	w.float(`,"green_supply_w":`, ev.GreenSupplyW)
	w.float(`,"offered_rate":`, ev.OfferedRate)
	w.float(`,"goodput":`, ev.Goodput)
	w.float(`,"latency_sec":`, ev.LatencySec)
	w.optFloat(`,"server_power_w":`, ev.ServerPowerW)
	w.string(`,"case":`, ev.Case)
	w.string(`,"config":`, ev.Config)
	w.optBool(`,"sprinting":`, ev.Sprinting)
	w.optFloat(`,"budget_w":`, ev.BudgetW)
	w.optFloat(`,"predicted_green_w":`, ev.PredictedGreenW)
	w.optFloat(`,"predicted_rate":`, ev.PredictedRate)
	w.optFloat(`,"demand_w":`, ev.DemandW)
	w.float(`,"sprint_fraction":`, ev.SprintFraction)
	w.float(`,"green_w":`, ev.GreenW)
	w.float(`,"battery_w":`, ev.BatteryW)
	w.float(`,"grid_w":`, ev.GridW)
	w.float(`,"soc":`, ev.SoC)
	w.optFloat(`,"battery_cycles":`, ev.BatteryCycles)
	w.optFloat(`,"breaker_stress":`, ev.BreakerStress)
	w.optBool(`,"qos_violation":`, ev.QoSViolation)
	w.optString(`,"chaos":`, ev.Chaos)
	w.optString(`,"chaos_mode":`, ev.ChaosMode)
	w.optInt(`,"chaos_target":`, ev.ChaosTarget)
	w.optString(`,"chaos_detail":`, ev.ChaosDetail)
	if len(ev.Classes) > 0 {
		w.b = append(w.b, `,"classes":[`...)
		for i := range ev.Classes {
			c := &ev.Classes[i]
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.string(`{"name":`, c.Name)
			w.b = append(w.b, `,"alive":`...)
			w.b = strconv.AppendInt(w.b, int64(c.Alive), 10)
			w.float(`,"goodput":`, c.Goodput)
			w.float(`,"energy_wh":`, c.EnergyWh)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, "}\n"...)
	return w.b, w.ok
}

// jsonWriter appends JSON members; ok turns false at the first value
// the fast path does not render.
type jsonWriter struct {
	b  []byte
	ok bool
}

func (w *jsonWriter) string(key, s string) {
	for i := 0; i < len(s); i++ {
		// Printable ASCII is copied verbatim by encoding/json, except
		// the quote, the backslash and the HTML-escaped <, > and &.
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.ok = false
			return
		}
	}
	w.b = append(w.b, key...)
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *jsonWriter) optString(key, s string) {
	if s != "" {
		w.string(key, s)
	}
}

func (w *jsonWriter) optInt(key string, v int) {
	if v != 0 {
		w.b = append(w.b, key...)
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	}
}

func (w *jsonWriter) optBool(key string, v bool) {
	if v {
		w.b = append(w.b, key...)
		w.b = append(w.b, "true"...)
	}
}

// float renders f as encoding/json does (units.AppendJSONFloat).
func (w *jsonWriter) float(key string, f float64) {
	w.b = append(w.b, key...)
	var ok bool
	if w.b, ok = units.AppendJSONFloat(w.b, f); !ok {
		w.ok = false
	}
}

// optFloat omits zero, including -0, as omitempty does.
func (w *jsonWriter) optFloat(key string, f float64) {
	if f != 0 {
		w.float(key, f)
	}
}
