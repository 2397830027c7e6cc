package experiments

import (
	"context"
	"fmt"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/obs"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/sweep"
	"greensprint/internal/tco"
	"greensprint/internal/workload"
)

// DayResult summarizes a 24-hour whole-cluster replay of the Figure 1
// diurnal workload against a generated solar day — the synthesis
// experiment tying the paper's pieces together: how many hours the
// cluster actually sprints per day, how much of the energy is green,
// and what the §IV-F TCO model says about a year of such days
// (including battery-wear-adjusted economics).
type DayResult struct {
	// SprintHours is how long the green servers sprinted.
	SprintHours float64
	// MeanClusterPerf is the mean whole-cluster performance during
	// overload epochs, normalized to an all-Normal cluster.
	MeanClusterPerf float64
	// GreenFraction is the share of green-server energy that came
	// from the renewable source.
	GreenFraction float64
	// BatteryCyclesPerDay is the battery wear of one such day.
	BatteryCyclesPerDay float64
	// YearlyBenefit and YearlyBenefitWithWear are $/kW/yr from the
	// TCO model, assuming every day looks like this one.
	YearlyBenefit         float64
	YearlyBenefitWithWear float64
}

// DayInTheLife runs the replay for SPECjbb on RE-Batt. The diurnal
// pattern drives the cluster-wide offered rate (1.0 = ten Normal-mode
// servers fully used); the spikes above 1.0 are the sprinting windows.
func DayInTheLife() (*DayResult, error) {
	return DayInTheLifeWithSink(context.Background(), 1, nil)
}

// DayInTheLifeWithSink is DayInTheLife split into `windows` contiguous
// time shards chained through sim.Checkpoint hand-off (windows <= 1
// runs the plain sequential engine), with an observability sink
// attached to the replay engine: every epoch emits one obs.Event. The
// stitched result is bit-identical to the sequential replay; sharding
// exists so multi-day replays can persist progress between windows.
// Because restored shard engines re-emit nothing for epochs already
// run, the event stream is bit-identical whatever the window count.
func DayInTheLifeWithSink(ctx context.Context, windows int, sink obs.Sink) (*DayResult, error) {
	cfg, err := dayInTheLifeConfig()
	if err != nil {
		return nil, err
	}
	cfg.Sink = sink
	res, err := sweep.ShardedRun(ctx, cfg, windows)
	if err != nil {
		return nil, err
	}
	return summarizeDay(cfg, res)
}

// dayInTheLifeConfig assembles the day-long replay configuration: the
// Figure 1 load pattern offered to the green servers and a generated
// partly-cloudy solar day.
func dayInTheLifeConfig() (sim.Config, error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return sim.Config{}, err
	}
	green := cluster.REBatt()

	// Inputs: the Figure 1 load pattern and a partly-cloudy solar day.
	load := workload.DiurnalPattern(figStart, time.Minute)
	scfg := solar.DefaultGeneratorConfig()
	scfg.Days = 1
	scfg.Skies = []solar.Sky{solar.PartlyCloudy}
	scfg.Seed = Seed
	scfg.Array = green.Array()
	sun, err := solar.Generate(scfg)
	if err != nil {
		return sim.Config{}, err
	}

	// The green servers run under the controller for the whole day;
	// the offered trace converts the normalized pattern to the
	// per-green-server rate at its capacity share.
	// 1.0 on the normalized pattern maps to a fully used Normal-mode
	// server, so the spikes overload it the way Figure 1's spikes
	// overload the grid.
	normalCap := p.MaxGoodput(server.Normal())
	perServerOffered := load.Scale(normalCap)
	strat, err := strategy.NewHybrid(p, tab)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Workload: p,
		Green:    green,
		Strategy: strat,
		Table:    tab,
		Burst:    workload.Burst{Intensity: 12, Duration: 24 * time.Hour},
		Supply:   sun,
		Offered:  perServerOffered,
	}, nil
}

// summarizeDay reduces a day-long replay result to the DayResult
// headline numbers.
func summarizeDay(cfg sim.Config, res *sim.Result) (*DayResult, error) {
	p, green, tab := cfg.Workload, cfg.Green, cfg.Table
	cl, err := cluster.New(green)
	if err != nil {
		return nil, err
	}
	normalCap := p.MaxGoodput(server.Normal())

	out := &DayResult{
		GreenFraction:       res.Account.GreenFraction(),
		BatteryCyclesPerDay: res.BatteryCycles,
	}
	// Cluster-wide performance per overloaded epoch: grid servers at
	// their best sub-optimal setting, green servers at the epoch's
	// executed setting.
	gridCfg := server.Normal()
	if e, ok := tab.BestWithin(tab.Levels-1, cl.GridHeadroomPerGridServer(), nil); ok {
		gridCfg = e.Config()
	}
	var perfSum float64
	overloaded := 0
	for _, rec := range res.Records {
		if rec.Config.IsSprinting() {
			out.SprintHours += sim.DefaultEpoch.Hours()
		}
		// Overload: the cluster-wide offered rate exceeds ten
		// Normal-mode servers.
		if rec.Offered <= normalCap {
			continue
		}
		configs := make([]server.Config, 0, cl.Servers)
		for i := 0; i < cl.GridServers(); i++ {
			configs = append(configs, gridCfg)
		}
		for i := 0; i < green.GreenServers; i++ {
			configs = append(configs, rec.Config)
		}
		perf, err := normalizedClusterPerf(p, configs, rec.Offered*float64(cl.Servers))
		if err != nil {
			return nil, err
		}
		perfSum += perf
		overloaded++
	}
	if overloaded > 0 {
		out.MeanClusterPerf = perfSum / float64(overloaded)
	}

	m := tco.Default()
	yearlyHours := out.SprintHours * 365
	out.YearlyBenefit = m.Benefit(yearlyHours)
	out.YearlyBenefitWithWear = m.BenefitWithWear(yearlyHours, out.BatteryCyclesPerDay*365, 1300)
	return out, nil
}

// String renders the day summary.
func (d *DayResult) String() string {
	return fmt.Sprintf(
		"sprint %.1f h/day, cluster perf %.2fx during overload, green fraction %.2f, "+
			"%.2f battery cycles/day, yearly benefit $%.0f/kW (wear-adjusted $%.0f/kW)",
		d.SprintHours, d.MeanClusterPerf, d.GreenFraction,
		d.BatteryCyclesPerDay, d.YearlyBenefit, d.YearlyBenefitWithWear)
}
