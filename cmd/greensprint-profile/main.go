// Command greensprint-profile builds and inspects the a-priori
// profiling tables of §III-B: LoadPower(L,S) and the QoS-constrained
// goodput for every workload-intensity level and server setting. The
// tables drive every strategy at run time; this tool exports them for
// offline analysis or pre-seeds a deployment.
//
// Usage:
//
//	greensprint-profile -workload SPECjbb [-levels 10] [-format json|table] [-level N] [-o FILE]
//
// With -format table and -level N it prints the level's power/goodput
// frontier; with -format json it writes the full table as the JSON the
// library re-loads via profile.ReadJSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"greensprint/internal/profile"
	"greensprint/internal/report"
	"greensprint/internal/workload"
)

func main() {
	wl := flag.String("workload", "SPECjbb", "workload: SPECjbb, Web-Search, Memcached")
	levels := flag.Int("levels", profile.DefaultLevels, "number of intensity levels (L1..Lw)")
	format := flag.String("format", "table", "output format: json or table")
	level := flag.Int("level", -1, "intensity level to print (-1 = highest) for -format table")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		//greensprint:allow(atomicwrite) table/JSON export stream, regenerable offline
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := run(w, *wl, *levels, *format, *level); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "greensprint-profile:", err)
	os.Exit(1)
}

func run(w io.Writer, wl string, levels int, format string, level int) error {
	p, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	tab, err := profile.Build(p, levels)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		return tab.WriteJSON(w)
	case "table":
		if level < 0 {
			level = tab.Levels - 1
		}
		if level >= tab.Levels {
			return fmt.Errorf("level %d out of range [0,%d)", level, tab.Levels)
		}
		entries := tab.LevelEntries(level)
		t := report.NewTable(
			fmt.Sprintf("%s profiling table, level %d of %d (offered %s %s/s per server)",
				p.Name, level, tab.Levels,
				report.FormatFloat(entries[0].OfferedRate, 1), p.MetricName),
			"setting", "LoadPower (W)", "goodput", "perf (x Normal)")
		for _, e := range entries {
			t.Add(e.Config().String(),
				report.FormatFloat(float64(e.Power), 1),
				report.FormatFloat(e.Goodput, 1),
				report.FormatFloat(e.NormPerf, 2))
		}
		return t.WriteText(w)
	default:
		return fmt.Errorf("unknown format %q (want json or table)", format)
	}
}
