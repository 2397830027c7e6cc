package obs

import "greensprint/internal/jsonw"

// appendEvent appends ev as one JSON line, byte-identical to what
// json.Encoder.Encode writes for it: fields in declaration order,
// omitempty honoured. It reports false, with b's contents unspecified,
// when ev holds a value only encoding/json can render faithfully — a
// non-finite float (an error there) or a string that needs escaping —
// so the caller can fall back to the reflective encoder.
func appendEvent(b []byte, ev *Event) ([]byte, bool) {
	w := jsonw.Writer{B: b, OK: true}
	w.Int(`{"epoch":`, int64(ev.Epoch))
	w.OmitString(`,"time":`, ev.Time)
	w.Float(`,"epoch_seconds":`, ev.EpochSeconds)
	w.OmitString(`,"strategy":`, ev.Strategy)
	w.OmitInt(`,"servers":`, int64(ev.Servers))
	w.OmitInt(`,"alive":`, int64(ev.Alive))
	w.OmitBool(`,"in_burst":`, ev.InBurst)
	w.Float(`,"green_supply_w":`, ev.GreenSupplyW)
	w.Float(`,"offered_rate":`, ev.OfferedRate)
	w.Float(`,"goodput":`, ev.Goodput)
	w.Float(`,"latency_sec":`, ev.LatencySec)
	w.OmitFloat(`,"server_power_w":`, ev.ServerPowerW)
	w.String(`,"case":`, ev.Case)
	w.String(`,"config":`, ev.Config)
	w.OmitBool(`,"sprinting":`, ev.Sprinting)
	w.OmitFloat(`,"budget_w":`, ev.BudgetW)
	w.OmitFloat(`,"predicted_green_w":`, ev.PredictedGreenW)
	w.OmitFloat(`,"predicted_rate":`, ev.PredictedRate)
	w.OmitFloat(`,"demand_w":`, ev.DemandW)
	w.Float(`,"sprint_fraction":`, ev.SprintFraction)
	w.Float(`,"green_w":`, ev.GreenW)
	w.Float(`,"battery_w":`, ev.BatteryW)
	w.Float(`,"grid_w":`, ev.GridW)
	w.Float(`,"soc":`, ev.SoC)
	w.OmitFloat(`,"battery_cycles":`, ev.BatteryCycles)
	w.OmitFloat(`,"breaker_stress":`, ev.BreakerStress)
	w.OmitBool(`,"qos_violation":`, ev.QoSViolation)
	w.OmitString(`,"chaos":`, ev.Chaos)
	w.OmitString(`,"chaos_mode":`, ev.ChaosMode)
	w.OmitInt(`,"chaos_target":`, int64(ev.ChaosTarget))
	w.OmitString(`,"chaos_detail":`, ev.ChaosDetail)
	if len(ev.Classes) > 0 {
		key := `,"classes":[`
		for i := range ev.Classes {
			c := &ev.Classes[i]
			w.B = append(w.B, key...)
			w.String(`{"name":`, c.Name)
			w.Int(`,"alive":`, int64(c.Alive))
			w.Float(`,"goodput":`, c.Goodput)
			w.Float(`,"energy_wh":`, c.EnergyWh)
			w.B = append(w.B, '}')
			key = ","
		}
		w.B = append(w.B, ']')
	}
	w.B = append(w.B, "}\n"...)
	return w.B, w.OK
}
