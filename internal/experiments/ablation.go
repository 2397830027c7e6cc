package experiments

// The design-choice ablations go beyond the paper's figures: the EWMA
// smoothing factor (paper: α = 0.3), Q-table power quantization (5 %),
// reward shaping (see rl.ShapedReward), battery depth of discharge
// (40 % for a 1300-cycle life), solar vs the burstier wind source,
// distributed (per-PDU) vs centralized renewable integration (§II),
// breaker overdraw (§III-A), calibration sensitivity and injected
// failures.

import (
	"context"
	"fmt"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/predictor"
	"greensprint/internal/rl"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/sweep"
	"greensprint/internal/trace"
	"greensprint/internal/units"
	"greensprint/internal/wind"
	"greensprint/internal/workload"
)

// AlphaPoint is one EWMA-sweep sample.
type AlphaPoint struct {
	Alpha float64
	RMSE  float64
	MAPE  float64
}

// EWMASweep evaluates one-step-ahead EWMA prediction error over a
// generated mixed-sky solar week at the 5-minute epoch scale, across
// smoothing factors. The paper's α = 0.3 should sit at or near the
// error minimum among the tested values.
func EWMASweep(alphas []float64) ([]AlphaPoint, error) {
	cfg := solar.DefaultGeneratorConfig()
	cfg.Seed = Seed
	cfg.Skies = []solar.Sky{
		solar.Clear, solar.PartlyCloudy, solar.Clear, solar.Overcast,
		solar.PartlyCloudy, solar.Clear, solar.PartlyCloudy,
	}
	tr, err := solar.Generate(cfg)
	if err != nil {
		return nil, err
	}
	epochs, err := tr.Resample(sim.DefaultEpoch)
	if err != nil {
		return nil, err
	}
	// Each cell evaluates its own EWMA predictor over the shared,
	// read-only epoch trace.
	return sweep.Map(context.Background(), alphas, func(_ context.Context, _ int, a float64) (AlphaPoint, error) {
		acc := predictor.Evaluate(predictor.NewEWMA(a), epochs)
		return AlphaPoint{Alpha: a, RMSE: acc.RMSE, MAPE: acc.MAPE}, nil
	})
}

// QuantizationPoint is one quantization-sweep sample.
type QuantizationPoint struct {
	Step    float64
	Levels  int
	Perf    float64
	QStates int
}

// QuantizationSweep runs the Med/30-minute SPECjbb cell with Hybrid
// strategies quantizing the power state at different steps. Finer
// steps grow the table without changing the converged decision much —
// the paper's rationale for settling on 5 %.
func QuantizationSweep(steps []float64) ([]QuantizationPoint, error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return nil, err
	}
	green := cluster.REBatt()
	supply := SupplyTraceForLevel(solar.Med, 30*time.Minute, green)
	// The profiling table and the supply window are shared read-only;
	// every cell builds its own Hybrid (and thus its own mutable
	// Q-table).
	return sweep.Map(context.Background(), steps, func(ctx context.Context, _ int, step float64) (QuantizationPoint, error) {
		h, err := strategy.NewHybridWithOptions(p, tab, strategy.HybridOptions{QuantizationStep: step})
		if err != nil {
			return QuantizationPoint{}, err
		}
		res, err := simulate(ctx, p, tab, green, h, supply, 12)
		if err != nil {
			return QuantizationPoint{}, err
		}
		return QuantizationPoint{
			Step:    step,
			Levels:  rl.Quantizer{Step: step}.Levels(),
			Perf:    res.MeanNormPerf,
			QStates: h.QTable().States(),
		}, nil
	})
}

// RewardAblation compares three Hybrid variants on the
// medium-availability 60-minute SPECjbb cell:
//
//	shaped  — the shipped strategy (shaped reward + expected-goodput
//	          safeguard in Decide).
//	literal — verbatim Algorithm 1 reward, but Decide's
//	          expected-goodput safeguard still active: the safeguard
//	          rescues the policy, showing Hybrid is robust to reward
//	          misspecification.
//	naive   — verbatim Algorithm 1 reward with a pure greedy-Q
//	          policy: the violated-QoS branch teaches it to prefer
//	          low power, and it collapses toward Normal mode.
func RewardAblation() (shaped, literal, naive float64, err error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return 0, 0, 0, err
	}
	green := cluster.REBatt()
	variants := []strategy.HybridOptions{
		{},
		{LiteralReward: true},
		{LiteralReward: true, DisableBurnValue: true},
	}
	supply := SupplyTraceForLevel(solar.Med, 60*time.Minute, green)
	out, err := sweep.Map(context.Background(), variants, func(ctx context.Context, _ int, opts strategy.HybridOptions) (float64, error) {
		h, err := strategy.NewHybridWithOptions(p, tab, opts)
		if err != nil {
			return 0, err
		}
		res, err := simulate(ctx, p, tab, green, h, supply, 12)
		if err != nil {
			return 0, err
		}
		return res.MeanNormPerf, nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return out[0], out[1], out[2], nil
}

// DoDPoint is one depth-of-discharge sweep sample.
type DoDPoint struct {
	MaxDoD float64
	Perf   float64
	Cycles float64
	// LifetimeCycles estimates the cycle life at this DoD using the
	// standard inverse relation calibrated to the paper's anchor
	// (40% DoD → 1300 cycles).
	LifetimeCycles float64
}

// DoDSweep runs the Min-availability 30-minute SPECjbb cell across
// battery DoD limits: deeper discharge buys performance at the cost of
// cycle life.
func DoDSweep(dods []float64) ([]DoDPoint, error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return nil, err
	}
	// Each cell gets its own GreenConfig value (and battery bank via
	// simulate) and its own Hybrid learner.
	return sweep.Map(context.Background(), dods, func(ctx context.Context, _ int, dod float64) (DoDPoint, error) {
		green := cluster.REBatt()
		green.MaxDoD = dod
		h, err := strategy.NewHybrid(p, tab)
		if err != nil {
			return DoDPoint{}, err
		}
		res, err := simulate(ctx, p, tab, green, h, SupplyTraceForLevel(solar.Min, 30*time.Minute, green), 12)
		if err != nil {
			return DoDPoint{}, err
		}
		return DoDPoint{
			MaxDoD:         dod,
			Perf:           res.MeanNormPerf,
			Cycles:         res.BatteryCycles,
			LifetimeCycles: 1300 * 0.40 / dod,
		}, nil
	})
}

// SourceComparison contrasts a solar-powered Med-availability burst
// with a wind-powered one of matched mean supply, reporting the
// Hybrid performance under each.
func SourceComparison(d time.Duration) (solarPerf, windPerf float64, err error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return 0, 0, err
	}
	green := cluster.REBatt()
	sun := SupplyTraceForLevel(solar.Med, d, green)

	wcfg := wind.DefaultGeneratorConfig()
	wcfg.Duration = d
	wcfg.Seed = Seed
	breeze, err := wind.Generate(wcfg)
	if err != nil {
		return 0, 0, err
	}
	// Match the wind trace's mean to the solar window's mean so the
	// comparison isolates variance, not energy.
	if m := breeze.Mean(); m > 0 {
		breeze = breeze.Scale(sun.Mean()/m).Clip(0, float64(green.PeakGreen()))
	}

	perfs, err := sweep.Map(context.Background(), []*trace.Trace{sun, breeze},
		func(ctx context.Context, _ int, supply *trace.Trace) (float64, error) {
			h, err := strategy.NewHybrid(p, tab)
			if err != nil {
				return 0, err
			}
			res, err := simulate(ctx, p, tab, green, h, supply, 12)
			if err != nil {
				return 0, err
			}
			return res.MeanNormPerf, nil
		})
	if err != nil {
		return 0, 0, err
	}
	return perfs[0], perfs[1], nil
}

// IntegrationComparison quantifies §II's architectural argument: with
// distributed (per-PDU) integration the array's full output feeds 3
// green servers (212 W each at peak); a centralized integration
// spreads the same output across all 10 servers (64 W each), which is
// not even enough to lift one server from Normal to a sprint setting.
// It returns the best full-sprint-capable per-server settings'
// normalized performance under each integration at peak supply.
func IntegrationComparison() (distributed, centralized float64, err error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return 0, 0, err
	}
	green := cluster.REBatt()
	peak := float64(green.PeakGreen())
	level := tab.Levels - 1

	normalPower := float64(p.LoadPower(server.Normal(), workload.SharedKernel(p).IntensityRate(12)))
	// Two cells over the shared read-only table:
	//
	//   distributed — 3 servers split the array; each can draw its
	//   share on top of nothing (green bus replaces grid), so the
	//   full per-server share is the budget.
	//
	//   centralized — every server gets peak/10 extra on top of its
	//   Normal grid allocation.
	budgets := []units.Watt{
		units.Watt(peak / float64(green.GreenServers)),
		units.Watt(normalPower + peak/float64(cluster.DefaultServers)),
	}
	perfs, err := sweep.Map(context.Background(), budgets, func(_ context.Context, _ int, budget units.Watt) (float64, error) {
		e, ok := tab.BestWithin(level, budget, nil)
		if !ok {
			return 1, nil
		}
		return e.NormPerf, nil
	})
	if err != nil {
		return 0, 0, err
	}
	return perfs[0], perfs[1], nil
}

// OverdrawComparison quantifies §III-A's last resort: a green-supply
// dip mid-burst with no batteries (REOnly), with and without bounded
// circuit-breaker overdraw. Overdraw bridges the dip; without it the
// rack falls back to Normal mode.
func OverdrawComparison() (plain, overdraw float64, err error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return 0, 0, err
	}
	d := 30 * time.Minute
	samples := make([]float64, int(d/time.Minute))
	for i := range samples {
		if i < 10 {
			samples[i] = 440
		} else {
			samples[i] = 330
		}
	}
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	supply := trace.New("dipping", start, time.Minute, samples)
	perfs, err := sweep.Map(context.Background(), []bool{false, true},
		func(ctx context.Context, _ int, allow bool) (float64, error) {
			res, err := sim.Run(ctx, sim.Config{
				Workload:             p,
				Green:                cluster.REOnly(),
				Strategy:             strategy.Pacing{},
				Table:                tab,
				Burst:                workload.Burst{Intensity: 12, Duration: d},
				Supply:               supply,
				AllowBreakerOverdraw: allow,
			})
			if err != nil {
				return 0, err
			}
			return res.MeanNormPerf, nil
		})
	if err != nil {
		return 0, 0, err
	}
	return perfs[0], perfs[1], nil
}

// FailureKind names an injected fault.
type FailureKind int

const (
	// CloudTransient zeroes the renewable supply for a window in
	// the middle of the burst.
	CloudTransient FailureKind = iota
	// BatteryDead starts the burst with batteries at the DoD floor.
	BatteryDead
)

// String implements fmt.Stringer.
func (k FailureKind) String() string {
	switch k {
	case CloudTransient:
		return "cloud-transient"
	case BatteryDead:
		return "battery-dead"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// InjectFailure runs the Med/30-minute SPECjbb cell with the given
// fault injected and returns the result; the controller must degrade
// gracefully (no panic, fallback to Normal) and recover after the
// fault clears.
func InjectFailure(kind FailureKind) (*sim.Result, error) {
	p := workload.SPECjbb()
	tab, err := tableFor(p)
	if err != nil {
		return nil, err
	}
	green := cluster.REBatt()
	supply := SupplyTraceForLevel(solar.Med, 30*time.Minute, green)
	switch kind {
	case CloudTransient:
		// Zero the middle third of the supply.
		from, to := supply.Len()/3, 2*supply.Len()/3
		for i := from; i < to; i++ {
			supply.Samples[i] = 0
		}
	case BatteryDead:
		// Modelled by removing the batteries entirely (an empty
		// bank and a floored bank supply the same: nothing).
		green.BatteryAh = 0
	}
	h, err := strategy.NewHybrid(p, tab)
	if err != nil {
		return nil, err
	}
	return simulate(context.Background(), p, tab, green, h, supply, 12)
}

// CalibrationPoint is one calibration-sensitivity sample.
type CalibrationPoint struct {
	// Knob names the perturbed parameter; Delta is the relative
	// perturbation applied.
	Knob  string
	Delta float64
	// Gain is the resulting max-sprint gain over Normal.
	Gain float64
}

// CalibrationSensitivity perturbs the two fitted per-app performance
// knobs (the frequency exponent ψ and the oversubscription penalty)
// by ±20% and reports the SPECjbb headline gain under each — the
// robustness check behind EXPERIMENTS.md's claim that the reproduced
// shapes do not hinge on a knife-edge calibration.
func CalibrationSensitivity() ([]CalibrationPoint, error) {
	base := workload.SPECjbb()
	type perturbation struct {
		knob   string
		delta  float64
		mutate func(*workload.Profile)
	}
	cells := []perturbation{
		{"baseline", 0, func(*workload.Profile) {}},
	}
	for _, d := range []float64{-0.2, 0.2} {
		d := d
		cells = append(cells,
			perturbation{"freq_exponent", d, func(p *workload.Profile) {
				p.FreqExponent *= 1 + d
			}},
			perturbation{"oversub_penalty", d, func(p *workload.Profile) {
				p.OversubPenalty *= 1 + d
			}})
	}
	// Each cell mutates its own value copy of the base profile. The
	// gain stays on the Profile method: a perturbed profile is a key of
	// its own, and a shared kernel for it would profile every setting
	// to read two of them.
	return sweep.Map(context.Background(), cells, func(_ context.Context, _ int, c perturbation) (CalibrationPoint, error) {
		p := base
		c.mutate(&p)
		if err := p.Validate(); err != nil {
			return CalibrationPoint{}, err
		}
		return CalibrationPoint{
			Knob:  c.knob,
			Delta: c.delta,
			Gain:  p.NormalizedPerf(server.MaxSprint()),
		}, nil
	})
}
