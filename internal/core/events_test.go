package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/solar"
	"greensprint/internal/trace"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// controllerStreamDigests pins the sha256 of the JSONL event stream a
// Controller emits over streamTelemetry, per strategy and chaos
// schedule ("" is the fault-free controller; the others are the
// simulator's per-mode golden schedules under internal/sim/testdata).
var controllerStreamDigests = map[string]string{
	"Greedy/":                "7d0d89f91fea506781a28e459a074490e980accc3278029c87d6913472cb8d0d",
	"Greedy/server-crash":    "663238a21062537de34cc32ecc534e6772eff6cb4ddcd3fbc014779baf8ad1bb",
	"Greedy/pss-stuck":       "0fe47c82beba03c1f7c46a8abecf7041c74034256e5bd5c723773eb6392acf9b",
	"Greedy/battery-degrade": "38f192d871869637a455fade65ea2033ee8fbef0888f833bb94f15d4b6703ff3",
	"Greedy/solar-dropout":   "843a6db1cf6f6161f5648a15d77b48d168bae56f1c374972c5ae815fdb9fa771",
	"Greedy/breaker-trip":    "976161ec0f447c68a8f8b7f827489281068ed14d5c6d4829d601aabedcb0955f",
	"Greedy/zone-outage":     "b2439d32669740df80c2c21a671cb27ba11bcda182dbd02047888cd876cdaa0e",
	"Hybrid/":                "71a63d440fde08e3ac4a41c3a62c5d7846bedab1db38ecb637a2964daecc93ac",
	"Hybrid/server-crash":    "32ff605a06f81ab08de1a8977e14a70fcbacffdf029344ad1ed8a09101553b0f",
	"Hybrid/pss-stuck":       "43bb048f45007585ae89e08a498de1d9f1289a35ae4daf7f71263f618509b2a3",
	"Hybrid/battery-degrade": "77a0dfb345fe70528c900ca82dc70764be8f2f3627ffb4ab84552d0852994567",
	"Hybrid/solar-dropout":   "8589b342e063b41947823b50a9bbc27b40ece594cd39e0dc835f1a095005e0dc",
	"Hybrid/breaker-trip":    "aca0a52e5ae9a3a6ddce34d88ee4fda961289a8396a0d93844ec8599e9f2c1a3",
	"Hybrid/zone-outage":     "c16a12944ff65f1e583e7acae7d2b765af4926c46c9400207c3af56ed311cf93",
}

// streamEpochs covers every golden schedule's faults and recoveries
// (the last recovers at epoch 20).
const streamEpochs = 24

// streamTelemetry is a deterministic daemon feed for the RE-Batt rack:
// green power from synthesized Max, Med and Min traces in turn, four
// epochs each, and an offered rate stepping between a background load
// and the Int=12 burst every three epochs, so the PSS meets every
// supply case a controller can reach.
func streamTelemetry() []Telemetry {
	p := workload.SPECjbb()
	peak := 3 * float64(solar.DefaultPanel().PeakAC())
	d := time.Duration(streamEpochs) * 5 * time.Minute
	traces := []*trace.Trace{
		solar.Synthesize(solar.Max, d, 5*time.Minute, peak, 7),
		solar.Synthesize(solar.Med, d, 5*time.Minute, peak, 7),
		solar.Synthesize(solar.Min, d, 5*time.Minute, peak, 7),
	}
	normal := p.MaxGoodput(server.Normal())
	out := make([]Telemetry, streamEpochs)
	for i := range out {
		tr := traces[(i/4)%len(traces)]
		tel := Telemetry{
			GreenPower:  units.Watt(tr.At(tr.Start.Add(time.Duration(i) * 5 * time.Minute))),
			OfferedRate: 0.6 * normal,
			Goodput:     0.6 * normal,
			Latency:     0.2,
			ServerPower: 90,
		}
		if (i/3)%2 == 1 {
			tel.OfferedRate = p.IntensityRate(12)
			tel.Goodput = normal
			tel.Latency = 0.55 // above SPECjbb's 0.5 s deadline
			tel.ServerPower = 140
		}
		out[i] = tel
	}
	return out
}

// TestControllerEventStream pins the daemon's event stream byte for
// byte: Greedy and Hybrid controllers, fault-free and under each
// golden chaos schedule, stream streamTelemetry into a JSONL sink whose
// sha256 must match controllerStreamDigests.
func TestControllerEventStream(t *testing.T) {
	tel := streamTelemetry()
	modes := []string{"", "server-crash", "pss-stuck", "battery-degrade", "solar-dropout", "breaker-trip", "zone-outage"}
	cases := map[pss.Case]bool{}
	var alive, stress, qos bool
	ran := 0
	for _, strat := range []string{"Greedy", "Hybrid"} {
		for _, mode := range modes {
			key := strat + "/" + mode
			t.Run(key, func(t *testing.T) {
				ran++
				var buf bytes.Buffer
				capture := &captureSink{}
				sink := obs.Multi(obs.NewJSONL(&buf), capture)
				var c *Controller
				if mode == "" {
					var err error
					c, err = New(Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), StrategyName: strat, Sink: sink})
					if err != nil {
						t.Fatal(err)
					}
				} else {
					c = newChaosController(t, strat, readGoldenSchedule(t, mode), sink)
				}
				for _, x := range tel {
					cases[mustStep(t, c, x).Case] = true
				}
				chaosLines := 0
				for _, ev := range capture.events {
					if ev.Chaos != "" {
						chaosLines++
					}
					alive = alive || ev.Alive > 0
					stress = stress || ev.BreakerStress > 0
					qos = qos || ev.QoSViolation
				}
				if (chaosLines > 0) != (mode != "") {
					t.Fatalf("%d chaos lines in the %q stream", chaosLines, mode)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got, want := hex.EncodeToString(sum[:]), controllerStreamDigests[key]; got != want {
					t.Errorf("stream sha256 = %s, want %s", got, want)
				}
			})
		}
	}
	if ran < len(controllerStreamDigests) {
		return // a -run filter picked some streams: coverage is the full set's
	}
	for _, want := range []pss.Case{pss.CaseGreenOnly, pss.CaseGreenPlusBattery, pss.CaseBatteryOnly, pss.CaseGridFallback} {
		if !cases[want] {
			t.Errorf("no controller step reached %v", want)
		}
	}
	if !alive || !stress || !qos {
		t.Errorf("streams carry alive %v, breaker_stress %v, qos_violation %v; want each somewhere", alive, stress, qos)
	}
}

// readGoldenSchedule loads the simulator's resolved golden schedule for
// one failure mode; each is resolved for the RE-Batt rack.
func readGoldenSchedule(t *testing.T, mode string) *chaos.Schedule {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "chaos_"+mode+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var s chaos.Schedule
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}
