package experiments

import (
	"context"
	"fmt"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/report"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/sweep"
	"greensprint/internal/tco"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

var figStart = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// Fig1 reproduces Figure 1: the diurnal Google-datacenter workload
// pattern together with the grid power cap, the scaled sprinting power
// demand, and a normalized solar production curve. All series are
// normalized to the grid power capacity.
func Fig1() ([]report.Series, error) {
	step := 5 * time.Minute
	load := workload.DiurnalPattern(figStart, step)

	// Sprinting power demand: serving intensity x requires power
	// scaled by the sprint peak-to-normal ratio when x exceeds the
	// grid-sustainable level.
	p := workload.SPECjbb()
	ratio := float64(p.PeakPower) / float64(server.NormalPower)
	demand := load.Clone()
	for i, v := range load.Samples {
		if v > 1 {
			demand.Samples[i] = 1 + (v-1)*ratio
		}
	}

	cfg := solar.DefaultGeneratorConfig()
	cfg.Days = 1
	cfg.Skies = []solar.Sky{solar.Clear}
	cfg.Seed = Seed
	sun, err := solar.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sunEpochs, err := sun.Resample(step)
	if err != nil {
		return nil, err
	}
	sunNorm := sunEpochs.ScaleToPeak(1.15) // solar peak slightly above grid cap

	x := make([]float64, load.Len())
	grid := make([]float64, load.Len())
	for i := range x {
		x[i] = float64(i) * step.Hours()
		grid[i] = 1
	}
	return []report.Series{
		{Name: "workload_intensity", X: x, Y: load.Samples},
		{Name: "grid_power", X: x, Y: grid},
		{Name: "sprinting_power", X: x, Y: demand.Samples},
		{Name: "renewable_power", X: x, Y: sunNorm.Samples},
	}, nil
}

// Fig5 reproduces Figure 5: the 24-hour power profile of the three
// green-provisioned servers running SPECjbb under the Hybrid strategy
// against the renewable supply — the availability regimes (Minimum at
// night, Medium on the shoulders, Maximum around noon) emerge from the
// diurnal trace.
func Fig5() ([]report.Series, error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return nil, err
	}
	green := cluster.REBatt()
	cfg := solar.DefaultGeneratorConfig()
	cfg.Days = 1
	cfg.Skies = []solar.Sky{solar.PartlyCloudy}
	cfg.Seed = Seed
	cfg.Array = green.Array()
	sun, err := solar.Generate(cfg)
	if err != nil {
		return nil, err
	}
	strat, err := strategy.NewHybrid(p, tab)
	if err != nil {
		return nil, err
	}
	res, err := simulate(context.Background(), p, tab, green, strat, sun, 12)
	if err != nil {
		return nil, err
	}
	n := float64(green.GreenServers)
	var x, supply, demand []float64
	for i, rec := range res.Records {
		x = append(x, float64(i)*sim.DefaultEpoch.Hours())
		supply = append(supply, float64(rec.Supply))
		demand = append(demand, n*float64(rec.Green+rec.Battery+rec.Grid))
	}
	return []report.Series{
		{Name: "renewable_power_w", X: x, Y: supply},
		{Name: "power_demand_w", X: x, Y: demand},
	}, nil
}

// Fig10a reproduces Figure 10(a): SPECjbb performance under RE-SBatt,
// medium availability, the Hybrid strategy, for burst intensities
// Int ∈ {12, 10, 9, 7} across the four burst durations.
func Fig10a() (*FigureGrid, error) {
	p := workload.SPECjbb()
	green := cluster.RESBatt()
	intensities := []int{12, 10, 9, 7}
	var names []string
	for _, in := range intensities {
		names = append(names, fmt.Sprintf("Int=%d", in))
	}
	return runGrid("Fig10a", p.Name, green.Name+", Med availability, Hybrid", []solar.Availability{solar.Med}, names,
		func(ctx context.Context, d time.Duration, level solar.Availability, in int) (float64, error) {
			return runCell(ctx, p, green, "Hybrid", level, d, intensities[in])
		})
}

// Fig10b reproduces Figure 10(b): the four strategies at Int=9 with
// minimum availability and a 10-minute burst.
func Fig10b() (map[string]float64, error) {
	p := workload.SPECjbb()
	green := cluster.RESBatt()
	strats := []string{"Greedy", "Parallel", "Pacing", "Hybrid"}
	vals, err := sweep.Map(context.Background(), strats, func(ctx context.Context, _ int, s string) (float64, error) {
		v, err := runCell(ctx, p, green, s, solar.Min, 10*time.Minute, 9)
		if err != nil {
			return 0, fmt.Errorf("Fig10b %s: %w", s, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, s := range strats {
		out[s] = vals[i]
	}
	return out, nil
}

// Fig11 reproduces Figure 11: profit of investment versus yearly
// sprinting hours.
func Fig11() ([]tco.Point, float64) {
	m := tco.Default()
	hours := make([]float64, 0, 41)
	for h := 0.0; h <= 40; h++ {
		hours = append(hours, h)
	}
	return m.Sweep(hours), m.CrossoverHours()
}

// TableI renders the green-provisioning options.
func TableI() *report.Table {
	t := report.NewTable("Table I: Options for green provision",
		"Configuration", "RE (servers)", "Panels", "Peak green (W)", "Battery (Ah, server level)")
	for _, g := range cluster.TableI() {
		t.Add(g.Name,
			fmt.Sprintf("%d", g.GreenServers),
			fmt.Sprintf("%d", g.Panels),
			report.FormatFloat(float64(g.PeakGreen()), 2),
			report.FormatFloat(float64(g.BatteryAh), 1))
	}
	return t
}

// TableII renders the workload descriptions.
func TableII() *report.Table {
	t := report.NewTable("Table II: Workload description",
		"Workload", "Memory", "Performance metric", "Peak sprint power (W)")
	for _, p := range workload.All() {
		t.Add(p.Name,
			fmt.Sprintf("%dGB", p.MemoryGB),
			fmt.Sprintf("%s (%g%%-ile %gms constrained)", p.MetricName, p.Quantile*100, p.Deadline*1000),
			report.FormatFloat(float64(p.PeakPower), 0))
	}
	return t
}

// SupplyTraceForLevel is the canonical synthetic supply window: the
// one runCell synthesizes for the figure grids, and the one the
// ablations replay.
func SupplyTraceForLevel(level solar.Availability, d time.Duration, green cluster.GreenConfig) *trace.Trace {
	return solar.Synthesize(level, d, time.Minute, float64(green.PeakGreen()), Seed)
}
