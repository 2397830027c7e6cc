package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/workload"
)

// transitions renders the chaos transitions among events, one line
// each: epoch, mode, target, fault or recover.
func transitions(events []obs.Event) []string {
	var out []string
	for _, ev := range events {
		if ev.Chaos != "" {
			out = append(out, fmt.Sprintf("%d %s %d %s", ev.Epoch, ev.ChaosMode, ev.ChaosTarget, ev.Chaos))
		}
	}
	return out
}

// TestFaultPathMatchesSim drives a paper-rack sim.Engine and a
// Controller with the same resolved schedule, for each of the six
// golden resilience profiles, and demands one fault semantics epoch by
// epoch: the same chaos transitions, alive census, stuck switch,
// battery health, and knob setting on every down server.
func TestFaultPathMatchesSim(t *testing.T) {
	for _, name := range []string{"server-crash", "pss-stuck", "battery-degrade", "solar-dropout", "breaker-trip", "zone-outage"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "chaos_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var sched chaos.Schedule
			if err := json.Unmarshal(raw, &sched); err != nil {
				t.Fatal(err)
			}

			p, green := workload.SPECjbb(), cluster.REBatt()
			lead, burst, tail := 10*time.Minute, 60*time.Minute, 15*time.Minute
			simSink := &captureSink{}
			eng, err := sim.New(sim.Config{
				Workload: p,
				Green:    green,
				Strategy: strategy.Greedy{},
				Burst:    workload.Burst{Intensity: 12, Duration: burst},
				Supply:   solar.Synthesize(solar.Med, lead+burst+tail, time.Minute, float64(green.PeakGreen()), 42),
				Lead:     lead,
				Tail:     tail,
				Sink:     simSink,
				Chaos:    &sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctrlSink := &captureSink{}
			ctrl := newChaosController(t, "Greedy", &sched, ctrlSink)

			sr, cr := eng.Rack(), ctrl.rack
			for epoch := 0; !eng.Done(); epoch++ {
				if _, _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				mustStep(t, ctrl, burstTelemetry(400))
				if s, c := fmt.Sprint(transitions(simSink.events)), fmt.Sprint(transitions(ctrlSink.events)); s != c {
					t.Fatalf("epoch %d: controller transitions %s, sim %s", epoch, c, s)
				}
				if s, c := sr.Alive(), cr.Alive(); s != c {
					t.Errorf("epoch %d: controller alive %d, sim %d", epoch, c, s)
				}
				if s, c := sr.Selector.Stuck(), cr.Selector.Stuck(); s != c {
					t.Errorf("epoch %d: controller stuck %v, sim %v", epoch, c, s)
				}
				if s, c := sr.Selector.Bank().Health(), cr.Selector.Bank().Health(); s != c {
					t.Errorf("epoch %d: controller battery health %v, sim %v", epoch, c, s)
				}
				for i := 0; i < sched.Servers; i++ {
					if !sr.Injector.ServerDown(i) {
						continue
					}
					if s, c := sr.Knobs.Current(i), cr.Knobs.Current(i); s != c {
						t.Errorf("epoch %d: down server %d knob: controller %v, sim %v", epoch, i, c, s)
					}
				}
			}
			if len(transitions(simSink.events)) == 0 {
				t.Fatal("the schedule produced no transitions")
			}
		})
	}
}

// flakyKnob is a host knob whose next Apply fails once armed.
type flakyKnob struct {
	armed bool
	calls int
	cur   server.Config
}

func (k *flakyKnob) Apply(c server.Config) error {
	k.calls++
	if k.armed {
		k.armed = false
		return errors.New("host write failed")
	}
	k.cur = c
	return nil
}

func (k *flakyKnob) Current() server.Config { return k.cur }

// TestFailedHostWriteLeavesNoTrace fails one host write mid-run and
// checks the controller forgets that epoch: its next decision and its
// checkpoint bytes equal those of a twin that never saw the failed
// step, and the rollback writes nothing more to the host. The failed
// step's telemetry (600 W, full burst) differs from the retried one
// (100 W, a third of the rate), so a leaked observation shows in the
// predictors, the Q-table and the bank.
func TestFailedHostWriteLeavesNoTrace(t *testing.T) {
	hosted := func(k *flakyKnob) *Controller {
		c, err := New(Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), StrategyName: "Hybrid", Host: k})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	flaky, steady := &flakyKnob{}, &flakyKnob{}
	a, twin := hosted(flaky), hosted(steady)
	for i := 0; i < 3; i++ {
		mustStep(t, a, burstTelemetry(400))
		mustStep(t, twin, burstTelemetry(400))
	}
	flaky.armed = true
	if _, err := a.Step(burstTelemetry(600)); err == nil {
		t.Fatal("a failed host write should fail the step")
	}
	if flaky.calls != steady.calls+1 {
		t.Errorf("host writes: %d, want the twin's %d plus the failed one", flaky.calls, steady.calls)
	}
	low := burstTelemetry(100)
	low.OfferedRate *= 0.3
	if da, dt := mustStep(t, a, low), mustStep(t, twin, low); da != dt {
		t.Errorf("after a failed step the controller decides %+v, its twin %+v", da, dt)
	}
	cpA, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cpT, err := twin.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(cpA)
	jt, _ := json.Marshal(cpT)
	if string(ja) != string(jt) {
		t.Errorf("checkpoints differ after a failed step:\n%s\n%s", ja, jt)
	}
}

// TestFailedRestoreLeavesNoTrace restores an epoch-3 checkpoint into a
// Hybrid controller that has run on to epoch 7, and makes the restore
// fail late: at the host write, or at a corrupt strategy state after
// the rack and the load predictor took theirs. Either way the
// controller keeps the state it had before the call: its epoch, its
// bank and its checkpoint bytes.
func TestFailedRestoreLeavesNoTrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(*flakyKnob, *Checkpoint)
	}{
		{"host-write", func(k *flakyKnob, _ *Checkpoint) { k.armed = true }},
		{"strategy-state", func(_ *flakyKnob, cp *Checkpoint) { cp.StrategyState = json.RawMessage(`{"q_table":{bad}`) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := &flakyKnob{}
			c, err := New(Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), StrategyName: "Hybrid", Host: k})
			if err != nil {
				t.Fatal(err)
			}
			var old *Checkpoint
			for i := 0; i < 7; i++ {
				if i == 3 {
					if old, err = c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				mustStep(t, c, burstTelemetry(200))
			}
			before := c.Snapshot()
			if before.Epoch != 7 || fmt.Sprintf("%.3f", before.BatterySoC) != "0.600" {
				t.Fatalf("before the restore: epoch %d, SoC %.3f; want 7 and 0.600", before.Epoch, before.BatterySoC)
			}
			cp, err := c.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(cp)

			tc.spoil(k, old)
			calls := k.calls
			if err := c.Restore(old); err == nil {
				t.Fatal("the spoiled restore should fail")
			}
			if after := c.Snapshot(); after.Epoch != before.Epoch || after.BatterySoC != before.BatterySoC {
				t.Errorf("after a failed restore: epoch %d, SoC %.3f; want %d and %.3f",
					after.Epoch, after.BatterySoC, before.Epoch, before.BatterySoC)
			}
			if cp, err = c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got, _ := json.Marshal(cp); string(got) != string(want) {
				t.Errorf("checkpoint changed across a failed restore:\n%s\n%s", got, want)
			}
			if k.calls > calls+1 {
				t.Errorf("host writes during the restore: %d, want at most the failed one", k.calls-calls)
			}
		})
	}
}
