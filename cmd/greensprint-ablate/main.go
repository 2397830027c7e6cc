// Command greensprint-ablate runs the design-choice ablations that go
// beyond the paper's published figures: EWMA smoothing factor,
// Q-learning power quantization, reward shaping, battery
// depth-of-discharge, renewable source (solar vs wind) and distributed
// vs centralized renewable integration, plus two failure injections.
//
// Usage:
//
//	greensprint-ablate [-which all|ewma|quant|reward|dod|source|integration|calibration|overdraw|failures] [-workers N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"greensprint/internal/experiments"
	"greensprint/internal/report"
	"greensprint/internal/sim"
	"greensprint/internal/sweep"
)

func main() {
	which := flag.String("which", "all", "ablation to run")
	workers := flag.Int("workers", 0,
		"cap the sweep worker pool at N (0 = GOMAXPROCS; 1 runs serially, bit-identical to any other N)")
	flag.Parse()
	if *workers > 0 {
		sweep.SetDefaultWorkers(*workers)
	}
	if err := run(os.Stdout, *which); err != nil {
		fmt.Fprintln(os.Stderr, "greensprint-ablate:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, which string) error {
	all := which == "all"
	ran := false
	step := func(name string, f func() error) error {
		if !all && which != name {
			return nil
		}
		ran = true
		fmt.Fprintf(w, "==== %s ====\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
		return nil
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"ewma", func() error { return ewma(w) }},
		{"quant", func() error { return quant(w) }},
		{"reward", func() error { return reward(w) }},
		{"dod", func() error { return dod(w) }},
		{"source", func() error { return source(w) }},
		{"integration", func() error { return integration(w) }},
		{"calibration", func() error { return calibration(w) }},
		{"overdraw", func() error { return overdraw(w) }},
		{"failures", func() error { return failures(w) }},
	}
	for _, s := range steps {
		if err := step(s.name, s.f); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown ablation %q", which)
	}
	return nil
}

func ewma(w io.Writer) error {
	pts, err := experiments.EWMASweep([]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9})
	if err != nil {
		return err
	}
	t := report.NewTable("EWMA smoothing factor (paper: α=0.3; α=0 is the persistence baseline) — one-step solar prediction error",
		"alpha", "RMSE (W)", "MAPE")
	for _, p := range pts {
		t.AddFloats(report.FormatFloat(p.Alpha, 1), 2, p.RMSE, p.MAPE)
	}
	return t.WriteText(w)
}

func quant(w io.Writer) error {
	pts, err := experiments.QuantizationSweep([]float64{0.025, 0.05, 0.10})
	if err != nil {
		return err
	}
	t := report.NewTable("Q-table power quantization (paper: 5%) — SPECjbb Med/30m",
		"step", "levels", "perf (x)", "Q states")
	for _, p := range pts {
		t.Add(report.FormatFloat(p.Step*100, 1)+"%",
			fmt.Sprintf("%d", p.Levels),
			report.FormatFloat(p.Perf, 2),
			fmt.Sprintf("%d", p.QStates))
	}
	return t.WriteText(w)
}

func reward(w io.Writer) error {
	shaped, literal, naive, err := experiments.RewardAblation()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Hybrid on SPECjbb Med/60m:\n")
	fmt.Fprintf(w, "  shaped reward + goodput safeguard   %sx (shipped)\n", report.FormatFloat(shaped, 2))
	fmt.Fprintf(w, "  literal Alg.1 + goodput safeguard   %sx (safeguard rescues it)\n", report.FormatFloat(literal, 2))
	fmt.Fprintf(w, "  literal Alg.1, pure greedy-Q        %sx (collapses; see DESIGN.md §5)\n", report.FormatFloat(naive, 2))
	return nil
}

func dod(w io.Writer) error {
	pts, err := experiments.DoDSweep([]float64{0.2, 0.4, 0.6, 0.8})
	if err != nil {
		return err
	}
	t := report.NewTable("Battery depth of discharge (paper: 40%) — SPECjbb Min/30m",
		"max DoD", "perf (x)", "cycles used", "lifetime (cycles)")
	for _, p := range pts {
		t.Add(report.FormatFloat(p.MaxDoD*100, 0)+"%",
			report.FormatFloat(p.Perf, 2),
			report.FormatFloat(p.Cycles, 3),
			report.FormatFloat(p.LifetimeCycles, 0))
	}
	return t.WriteText(w)
}

func source(w io.Writer) error {
	s, wd, err := experiments.SourceComparison(30 * time.Minute)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SPECjbb 30m burst at matched mean supply: solar %sx vs wind %sx\n",
		report.FormatFloat(s, 2), report.FormatFloat(wd, 2))
	return nil
}

func integration(w io.Writer) error {
	dist, cent, err := experiments.IntegrationComparison()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Renewable integration at peak supply: distributed (per-PDU) %sx vs centralized %sx\n",
		report.FormatFloat(dist, 2), report.FormatFloat(cent, 2))
	return nil
}

func calibration(w io.Writer) error {
	pts, err := experiments.CalibrationSensitivity()
	if err != nil {
		return err
	}
	t := report.NewTable("Calibration sensitivity — SPECjbb max-sprint gain under ±20% knob perturbations",
		"knob", "delta", "gain (x)")
	for _, p := range pts {
		t.Add(p.Knob, report.FormatFloat(p.Delta*100, 0)+"%", report.FormatFloat(p.Gain, 2))
	}
	return t.WriteText(w)
}

func overdraw(w io.Writer) error {
	plain, boosted, err := experiments.OverdrawComparison()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Green-supply dip on REOnly (no batteries), SPECjbb 30m burst:\n")
	fmt.Fprintf(w, "  without breaker overdraw  %sx\n", report.FormatFloat(plain, 2))
	fmt.Fprintf(w, "  with bounded overdraw     %sx (the §III-A last resort)\n", report.FormatFloat(boosted, 2))
	return nil
}

func failures(w io.Writer) error {
	for _, k := range []experiments.FailureKind{experiments.CloudTransient, experiments.BatteryDead} {
		res, err := experiments.InjectFailure(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s mean perf %sx, min epoch perf %sx (service never drops below Normal)\n",
			k, report.FormatFloat(res.MeanNormPerf, 2), report.FormatFloat(minPerf(res), 2))
	}
	return nil
}

func minPerf(res *sim.Result) float64 {
	min := 0.0
	for i, rec := range res.BurstRecords() {
		if i == 0 || rec.NormPerf < min {
			min = rec.NormPerf
		}
	}
	return min
}
