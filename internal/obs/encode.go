package obs

import "greensprint/internal/jsonw"

// The top-level float members of Event, indexing a floatMemos.
const (
	memoEpochSeconds = iota
	memoGreenSupplyW
	memoOfferedRate
	memoGoodput
	memoLatencySec
	memoServerPowerW
	memoBudgetW
	memoPredictedGreenW
	memoPredictedRate
	memoDemandW
	memoSprintFraction
	memoGreenW
	memoBatteryW
	memoGridW
	memoSoC
	memoBatteryCycles
	memoBreakerStress
	numFloatMembers
)

// floatMemos holds, per top-level float member, the last value
// appendEvent formatted for it and its bytes.
type floatMemos [numFloatMembers]jsonw.FloatMemo

// appendEvent appends ev as one JSON line, byte-identical to what
// json.Encoder.Encode writes for it: fields in declaration order,
// omitempty honoured. It reports false, with b's contents unspecified,
// when ev holds a value only encoding/json can render faithfully — a
// non-finite float (an error there) or a string that needs escaping —
// so the caller can fall back to the reflective encoder. Each
// top-level float member goes through its memo in m, which copies a
// value with the bits it last formatted; goodput also tries
// offered_rate's, which it usually equals.
func appendEvent(b []byte, ev *Event, m *floatMemos) ([]byte, bool) {
	w := jsonw.Writer{B: b, OK: true}
	w.Int(`{"epoch":`, int64(ev.Epoch))
	w.OmitString(`,"time":`, ev.Time)
	w.MemoFloat(`,"epoch_seconds":`, ev.EpochSeconds, &m[memoEpochSeconds])
	w.OmitString(`,"strategy":`, ev.Strategy)
	w.OmitInt(`,"servers":`, int64(ev.Servers))
	w.OmitInt(`,"alive":`, int64(ev.Alive))
	w.OmitBool(`,"in_burst":`, ev.InBurst)
	w.MemoFloat(`,"green_supply_w":`, ev.GreenSupplyW, &m[memoGreenSupplyW])
	w.MemoFloat(`,"offered_rate":`, ev.OfferedRate, &m[memoOfferedRate])
	w.MemoFloat(`,"goodput":`, ev.Goodput, &m[memoGoodput], &m[memoOfferedRate])
	w.MemoFloat(`,"latency_sec":`, ev.LatencySec, &m[memoLatencySec])
	w.OmitMemoFloat(`,"server_power_w":`, ev.ServerPowerW, &m[memoServerPowerW])
	w.String(`,"case":`, ev.Case)
	w.String(`,"config":`, ev.Config)
	w.OmitBool(`,"sprinting":`, ev.Sprinting)
	w.OmitMemoFloat(`,"budget_w":`, ev.BudgetW, &m[memoBudgetW])
	w.OmitMemoFloat(`,"predicted_green_w":`, ev.PredictedGreenW, &m[memoPredictedGreenW])
	w.OmitMemoFloat(`,"predicted_rate":`, ev.PredictedRate, &m[memoPredictedRate])
	w.OmitMemoFloat(`,"demand_w":`, ev.DemandW, &m[memoDemandW])
	w.MemoFloat(`,"sprint_fraction":`, ev.SprintFraction, &m[memoSprintFraction])
	w.MemoFloat(`,"green_w":`, ev.GreenW, &m[memoGreenW])
	w.MemoFloat(`,"battery_w":`, ev.BatteryW, &m[memoBatteryW])
	w.MemoFloat(`,"grid_w":`, ev.GridW, &m[memoGridW])
	w.MemoFloat(`,"soc":`, ev.SoC, &m[memoSoC])
	w.OmitMemoFloat(`,"battery_cycles":`, ev.BatteryCycles, &m[memoBatteryCycles])
	w.OmitMemoFloat(`,"breaker_stress":`, ev.BreakerStress, &m[memoBreakerStress])
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
