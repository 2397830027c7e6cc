// Command greensprint-bench regenerates every table and figure of the
// paper's evaluation against the simulated testbed and prints them as
// aligned text tables (optionally also writing CSV files for
// plotting).
//
// Usage:
//
//	greensprint-bench [-fig all|1|5|6|7|8|9|10a|10b|11|day|tables|headline] [-out DIR] [-workers N]
//	                  [-windows N] [-events FILE]
//
// -windows splits the -fig day replay into N contiguous time shards
// chained through checkpoint hand-off (matching examples/nrel-replay
// -windows); the stitched result is bit-identical to -windows=1.
// -events streams the day replay's per-epoch JSONL observability
// records to FILE; the stream is identical whatever the window count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"greensprint/internal/experiments"
	"greensprint/internal/obs"
	"greensprint/internal/report"
	"greensprint/internal/sweep"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate")
	out := flag.String("out", "", "directory for CSV outputs (optional)")
	workers := flag.Int("workers", 0,
		"cap the sweep worker pool at N (0 = GOMAXPROCS; 1 runs serially, bit-identical to any other N)")
	windows := flag.Int("windows", 1,
		"split the -fig day replay into N checkpoint-chained time shards (result is bit-identical to 1)")
	eventsPath := flag.String("events", "",
		"stream the -fig day replay's per-epoch JSONL observability records to this file")
	flag.Parse()
	if *workers > 0 {
		sweep.SetDefaultWorkers(*workers)
	}
	if *windows < 1 {
		fmt.Fprintln(os.Stderr, "greensprint-bench: -windows must be >= 1")
		os.Exit(1)
	}
	var sink obs.Sink
	if *eventsPath != "" {
		//greensprint:allow(atomicwrite) JSONL event stream: appended live, partial output is useful, never reloaded as state
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greensprint-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = obs.NewJSONL(f)
	}
	if err := run(os.Stdout, *fig, *out, *windows, sink); err != nil {
		fmt.Fprintln(os.Stderr, "greensprint-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fig, outDir string, windows int, sink obs.Sink) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	all := fig == "all"
	ran := false
	runStep := func(name string, f func() error) error {
		if !all && fig != name {
			return nil
		}
		ran = true
		fmt.Fprintf(w, "==== %s ====\n", name)
		return f()
	}

	steps := []struct {
		name string
		f    func() error
	}{
		{"tables", func() error { return tables(w) }},
		{"headline", func() error { return headline(w) }},
		{"1", func() error { return seriesFigure(w, outDir, "fig1", "hours", experiments.Fig1) }},
		{"5", func() error { return seriesFigure(w, outDir, "fig5", "hours", experiments.Fig5) }},
		{"6", func() error { return grid(w, outDir, experiments.Fig6) }},
		{"7", func() error { return grid(w, outDir, experiments.Fig7) }},
		{"8", func() error { return grid(w, outDir, experiments.Fig8) }},
		{"9", func() error { return grid(w, outDir, experiments.Fig9) }},
		{"10a", func() error { return grid(w, outDir, experiments.Fig10a) }},
		{"10b", func() error { return fig10b(w) }},
		{"11", func() error { return fig11(w, outDir) }},
		{"day", func() error { return dayInLife(w, windows, sink) }},
	}
	for _, s := range steps {
		if err := runStep(s.name, s.f); err != nil {
			return fmt.Errorf("fig %s: %w", s.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func tables(w io.Writer) error {
	if err := experiments.TableI().WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return experiments.TableII().WriteText(w)
}

func headline(w io.Writer) error {
	gains, err := experiments.HeadlineGains()
	if err != nil {
		return err
	}
	t := report.NewTable("Headline: max performance gain with sufficient renewable supply",
		"workload", "gain (x Normal)", "paper")
	paper := map[string]string{"SPECjbb": "4.8", "Web-Search": "4.1", "Memcached": "4.7"}
	for _, name := range []string{"SPECjbb", "Web-Search", "Memcached"} {
		t.Add(name, report.FormatFloat(gains[name], 2), paper[name])
	}
	return t.WriteText(w)
}

func seriesFigure(w io.Writer, outDir, name, xLabel string, f func() ([]report.Series, error)) error {
	series, err := f()
	if err != nil {
		return err
	}
	for _, s := range series {
		st := struct{ min, max float64 }{s.Y[0], s.Y[0]}
		for _, v := range s.Y {
			if v < st.min {
				st.min = v
			}
			if v > st.max {
				st.max = v
			}
		}
		fmt.Fprintf(w, "%-22s n=%-5d min=%-10s max=%s\n",
			s.Name, len(s.Y), report.FormatFloat(st.min, 3), report.FormatFloat(st.max, 3))
	}
	return writeSeriesCSV(outDir, name, xLabel, series)
}

func writeSeriesCSV(outDir, name, xLabel string, series []report.Series) error {
	if outDir == "" {
		return nil
	}
	//greensprint:allow(atomicwrite) CSV export stream for plots, not reloaded state
	f, err := os.Create(filepath.Join(outDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.WriteSeriesCSV(f, xLabel, series...)
}

func grid(w io.Writer, outDir string, f func() (*experiments.FigureGrid, error)) error {
	g, err := f()
	if err != nil {
		return err
	}
	for _, t := range g.Tables() {
		if err := t.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if outDir != "" {
		for _, level := range g.Levels {
			name := fmt.Sprintf("%s_%s", g.ID, level)
			if err := writeSeriesCSV(outDir, name, "burst_minutes", g.Series(level)); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig10b(w io.Writer) error {
	vals, err := experiments.Fig10b()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig10b: strategies at Int=9, Min availability, 10-minute burst")
	max := 0.0
	order := []string{"Greedy", "Parallel", "Pacing", "Hybrid"}
	for _, s := range order {
		if vals[s] > max {
			max = vals[s]
		}
	}
	for _, s := range order {
		fmt.Fprintln(w, report.Bar(s, vals[s], max, 40))
	}
	return nil
}

func dayInLife(w io.Writer, windows int, sink obs.Sink) error {
	d, err := experiments.DayInTheLifeWithSink(context.Background(), windows, sink)
	if err != nil {
		return err
	}
	if windows > 1 {
		fmt.Fprintf(w, "(replayed as %d checkpoint-chained windows)\n", windows)
	}
	fmt.Fprintln(w, "Day in the life (Figure 1 load + partly-cloudy solar day, SPECjbb, RE-Batt):")
	fmt.Fprintln(w, " ", d)
	return nil
}

func fig11(w io.Writer, outDir string) error {
	pts, crossover := experiments.Fig11()
	t := report.NewTable(
		fmt.Sprintf("Fig11: profit of investment (crossover ≈ %s h/yr; paper: ~14)",
			report.FormatFloat(crossover, 1)),
		"sprint hours/yr", "benefit ($/kW/yr)", "profitable")
	for _, p := range pts {
		if int(p.SprintHours)%4 != 0 {
			continue
		}
		t.Add(report.FormatFloat(p.SprintHours, 0), report.FormatFloat(p.Benefit, 1),
			fmt.Sprintf("%v", p.Profitable))
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	if outDir != "" {
		s := report.Series{Name: "benefit_usd_per_kw_year"}
		for _, p := range pts {
			s.X = append(s.X, p.SprintHours)
			s.Y = append(s.Y, p.Benefit)
		}
		return writeSeriesCSV(outDir, "fig11", "sprint_hours_per_year", []report.Series{s})
	}
	return nil
}
