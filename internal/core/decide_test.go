package core

import (
	"testing"
	"time"

	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/profile"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/strategy"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// recordingStrategy decides Normal and records every feedback it is
// asked to learn from.
type recordingStrategy struct {
	strategy.Stateless
	learned []strategy.Feedback
}

func (*recordingStrategy) Name() string                         { return "Recording" }
func (*recordingStrategy) Decide(strategy.Inputs) server.Config { return server.Normal() }
func (r *recordingStrategy) Learn(fb strategy.Feedback)         { r.learned = append(r.learned, fb) }

// controllerRack builds a rack shaped like c's — one class of its green
// servers, its table, breaker and injector — over bank, deciding with s.
func controllerRack(t *testing.T, c *Controller, bank battery.Store, s strategy.Strategy) *sim.Rack {
	t.Helper()
	r, err := sim.NewRack(sim.RackConfig{
		Counts: []int{c.opts.Green.GreenServers}, ClassOf: func(int) int { return 0 },
		Tables: []*profile.Table{c.table}, Kernels: []*workload.Kernel{workload.SharedKernel(c.opts.Workload)},
		Bank: bank, Breaker: c.rack.Breaker, Injector: c.rack.Injector,
		Strategy: s, Table: c.table, Epoch: c.epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestControllerLearnSupplyPerAliveServer crashes one of the RE-Batt
// rack's three servers and checks the learner's supply is shared over
// the two alive servers, as in the simulator: green/m plus the
// sustainable battery power over m.
func TestControllerLearnSupplyPerAliveServer(t *testing.T) {
	sched := chaosSched(chaos.Fault{Epoch: 0, Mode: chaos.ServerCrash, Target: 0, Recover: 10})
	c := newChaosController(t, "Greedy", sched, nil)
	rec := &recordingStrategy{}
	c.rack = controllerRack(t, c, c.rack.Selector.Bank(), rec)

	mustStep(t, c, burstTelemetry(300))
	if m := c.rack.Alive(); m != 2 {
		t.Fatalf("alive = %d, want 2", m)
	}
	sustainable := c.rack.Selector.BatterySustainable(c.epoch)
	mustStep(t, c, burstTelemetry(300))
	if len(rec.learned) != 1 {
		t.Fatalf("learned %d feedbacks, want 1", len(rec.learned))
	}
	if got, want := rec.learned[0].Supply, units.Watt(300.0/2)+sustainable/2; got != want {
		t.Errorf("learner supply = %v, want %v (green and battery over 2 alive servers)", got, want)
	}
}

// TestControllerGridRechargeMatchesRack drains a 10-server RE-Batt bank
// and steps a Normal decision outside a predicted burst: the grid
// top-up is the rack's idle upkeep, the same energy a twin rack's
// Upkeep accepts. At 10 units the top-up stays under the bank's 30 W
// per-unit charge cap, so a per-server top-up would charge more.
func TestControllerGridRechargeMatchesRack(t *testing.T) {
	green := cluster.REBatt()
	green.Name, green.GreenServers = "RE-Batt-10", 10
	drained := func() battery.Store {
		bank, err := green.NewBank()
		if err != nil {
			t.Fatal(err)
		}
		_, _ = bank.Discharge(units.Watt(50*green.GreenServers), 24*time.Hour)
		return bank
	}
	c, err := New(Options{Workload: workload.SPECjbb(), Green: green, StrategyName: "Normal", Bank: drained()})
	if err != nil {
		t.Fatal(err)
	}
	if !c.rack.Selector.NeedsRecharge() {
		t.Fatalf("bank at SoC %v has not reached the recharge trigger", c.rack.Selector.Bank().SoC())
	}
	twin := controllerRack(t, c, drained(), strategy.Normal{})
	twin.Upkeep(0)
	want := twin.Selector.Account().GridCharged

	d := mustStep(t, c, Telemetry{OfferedRate: 0.3 * c.table.MaxRate})
	if d.Config != server.Normal() || d.Case != pss.CaseGridFallback {
		t.Fatalf("decision %v/%v, want Normal on grid fallback", d.Config, d.Case)
	}
	if got := c.rack.Selector.Account().GridCharged; got != want || want <= 0 {
		t.Errorf("grid recharge = %v, rack upkeep charges %v", got, want)
	}
}

// TestControllerNormalInPredictedBurstAllocates steps a Normal decision
// with ample green during a predicted burst: as in the simulator, it is
// allocated, so green alone carries the Normal draw instead of the grid.
func TestControllerNormalInPredictedBurstAllocates(t *testing.T) {
	c := newController(t, "Normal", cluster.REBatt())
	tel := burstTelemetry(635)
	if tel.OfferedRate <= 0.5*c.table.MaxRate {
		t.Fatalf("offered rate %v is no predicted burst (MaxRate %v)", tel.OfferedRate, c.table.MaxRate)
	}
	d := mustStep(t, c, tel)
	if d.Config != server.Normal() {
		t.Fatalf("config = %v, want Normal", d.Config)
	}
	if d.Case != pss.CaseGreenOnly {
		t.Errorf("case = %v, want %v", d.Case, pss.CaseGreenOnly)
	}
}
