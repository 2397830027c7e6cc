package experiments

import (
	"context"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/server"
	"greensprint/internal/solar"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// ClusterWide reproduces §IV's whole-cluster arithmetic: during a
// burst the 1000 W grid budget is fully dedicated to the 7 grid-fed
// servers, which sprint at the best sub-optimal setting fitting their
// ~142.9 W share, while the 3 green servers sprint on renewable power.
// It returns the aggregate cluster performance (normalized to a
// 10-server Normal-mode cluster) and the chosen grid-server setting.
type ClusterWideResult struct {
	// GridConfig is the sub-optimal sprinting setting the grid-fed
	// servers run (the paper names 12c@1.5GHz and 7c@2GHz as
	// examples that fit).
	GridConfig server.Config
	// GridPerf is one grid server's normalized performance.
	GridPerf float64
	// GreenPerf is one green server's mean normalized performance
	// over the burst.
	GreenPerf float64
	// ClusterPerf is the aggregate: (7·GridPerf + 3·GreenPerf)/10.
	ClusterPerf float64
}

// ClusterWide runs the SPECjbb Int=12 burst cluster-wide at the given
// availability and duration under RE-Batt.
func ClusterWide(level solar.Availability, d time.Duration) (*ClusterWideResult, error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return nil, err
	}
	green := cluster.REBatt()
	cl, err := cluster.New(green)
	if err != nil {
		return nil, err
	}
	headroom := cl.GridHeadroomPerGridServer()
	lvl := tab.LevelFor(workload.SharedKernel(p).IntensityRate(12))
	e, ok := tab.BestWithin(lvl, headroom, nil)
	gridPerf := 1.0
	gridCfg := server.Normal()
	if ok {
		gridPerf = e.NormPerf
		gridCfg = e.Config()
	}
	greenPerf, err := runCell(context.Background(), p, green, "Hybrid", SupplyTraceForLevel(level, d, green), 12)
	if err != nil {
		return nil, err
	}
	n := float64(cl.Servers)
	res := &ClusterWideResult{
		GridConfig: gridCfg,
		GridPerf:   gridPerf,
		GreenPerf:  greenPerf,
		ClusterPerf: (float64(cl.GridServers())*gridPerf +
			float64(green.GreenServers)*greenPerf) / n,
	}
	return res, nil
}

// SubOptimalGridConfigs verifies the paper's §IV examples: the two
// named sub-optimal settings whose fully-loaded SPECjbb power fits the
// per-grid-server share of the 1000 W budget.
func SubOptimalGridConfigs() (fits []server.Config, headroom units.Watt, err error) {
	p := workload.SPECjbb()
	cl, err := cluster.New(cluster.REBatt())
	if err != nil {
		return nil, 0, err
	}
	headroom = cl.GridHeadroomPerGridServer()
	candidates := []server.Config{
		{Cores: 12, Freq: 1500},
		{Cores: 7, Freq: 2000},
	}
	rate := workload.SharedKernel(p).IntensityRate(12)
	for _, c := range candidates {
		if p.LoadPower(c, rate) <= headroom {
			fits = append(fits, c)
		}
	}
	return fits, headroom, nil
}
