// Command perfbench is GreenSprint's end-to-end and per-layer
// benchmark. One invocation runs one named workload from a seed for a
// fixed measuring time, checks the workload's output against its
// expected digest, and prints every metric by name with its unit. The
// last line of standard output is the result object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"pass_s":{"value":1.5,"unit":"s"},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// workload runs again with timing probes on the program's existing
// interfaces and the metrics are the per-layer ones. See README.md for
// the workloads, the metric catalog and the recorded baselines.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload diurnal_year --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workload names, in the order README.md documents them.
const (
	wDiurnal = "diurnal_year"
	wResume  = "checkpoint_resume"
	wDaemon  = "daemon_api"
	wFigures = "paper_figures"
)

// goldenSeed is the seed whose output digests digests.json records.
const goldenSeed = 1

//go:embed digests.json
var digestsJSON []byte

// env is one benchmark invocation's settings.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workdir  string // scratch space inside the checkout
	figbin   string // the greensprint-bench binary built from source
}

// outcome is what a workload measured. Durations are host wall time.
type outcome struct {
	attempted, failed int64
	setup             []time.Duration // one per construction of the program's state
	passes            []time.Duration // one per complete pass of the workload's script
	ops               []time.Duration // the workload's unit operation
	epochs            int64           // simulated epochs stepped
	peakRSSMB         float64         // 0 = this process's own peak
	digest            string          // output digest of the first pass
	layers            map[string]metric
}

// check records one output check; a mismatch counts as a failed
// operation.
func (o *outcome) check(ok bool, what string) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", what)
	}
}

// matches checks a pass's output digest against the first pass's.
func (o *outcome) matches(digest, what string) {
	if o.digest == "" {
		o.digest = digest
	}
	o.check(digest == o.digest, fmt.Sprintf("%s digest %s, first pass %s", what, digest, o.digest))
}

// absorb folds the counts of an untimed pass or an untraced twin into o
// and returns its pass times, the baseline for trace.overhead_pct.
func (o *outcome) absorb(twin *outcome) []time.Duration {
	o.attempted += twin.attempted
	o.failed += twin.failed
	return twin.passes
}

// fail records one failed operation.
func (o *outcome) fail(err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var e env
	var secs, trace int
	flag.StringVar(&e.workload, "workload", "", "workload: diurnal_year, checkpoint_resume, daemon_api or paper_figures")
	flag.Int64Var(&e.seed, "seed", goldenSeed, "seed the workload's inputs are generated from")
	flag.IntVar(&secs, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&e.workdir, "workdir", ".bench_build", "scratch directory for checkpoints and span dumps")
	flag.StringVar(&e.figbin, "figbin", filepath.Join(".bench_build", "greensprint-bench"), "greensprint-bench binary")
	figsteps := flag.Bool("figsteps", false, "internal: time each greensprint-bench step in this process and print the timings")
	flag.Parse()
	if *figsteps {
		if err := runFigureSteps(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	e.seconds = time.Duration(secs) * time.Second
	e.traced = trace == 1
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(e env) error {
	if e.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	var golden struct {
		Seed    int64             `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(digestsJSON, &golden); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.workdir, "run-"+e.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var out *outcome
	switch e.workload {
	case wDiurnal:
		out, err = diurnalYear(e)
	case wResume:
		out, err = checkpointResume(e, dir)
	case wDaemon:
		out, err = daemonAPI(e, dir)
	case wFigures:
		out, err = paperFigures(e)
	default:
		return fmt.Errorf("unknown workload %q", e.workload)
	}
	if err != nil {
		return err
	}
	// The figure harness's inputs are fixed by the paper's root seed,
	// so its digest holds for every benchmark seed.
	if want := golden.Digests[e.workload]; want != "" && (e.seed == golden.Seed || e.workload == wFigures) {
		out.check(out.digest == want, fmt.Sprintf("%s digest %s, want %s", e.workload, out.digest, want))
	}

	printJSONLine(map[string]any{"host": hostRecord()})
	printJSONLine(map[string]any{"workload": e.workload, "seed": e.seed, "traced": e.traced, "digest": out.digest,
		"passes_s": secondsOf(out.passes), "op_samples": len(out.ops), "setup_samples": len(out.setup),
		"op_ms": map[string]float64{"p50": millis(percentile(out.ops, 50)), "p90": millis(percentile(out.ops, 90)),
			"p95": millis(percentile(out.ops, 95)), "p99": millis(percentile(out.ops, 99))}})

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if e.traced {
		res.Metrics = out.layers
	} else {
		if len(out.setup) == 0 || len(out.passes) == 0 || len(out.ops) == 0 {
			return errors.New("workload produced no samples")
		}
		rss := out.peakRSSMB
		if rss == 0 {
			rss = selfPeakRSSMB()
		}
		res.Metrics = map[string]metric{
			"setup_s":     {seconds(median(out.setup)), "s"},
			"pass_s":      {seconds(meanOf(out.passes)), "s"},
			"op_p50_ms":   {millis(percentile(out.ops, 50)), "ms"},
			"op_p90_ms":   {millis(percentile(out.ops, 90)), "ms"},
			"peak_rss_mb": {rss, "MB"},
		}
	}
	if res.Attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	printJSONLine(res)
	return nil
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(b, '\n'))
}

// hostRecord identifies the machine a result was measured on.
func hostRecord() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gogc":       gogc,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deadline reports whether a measuring loop that started at start
// should stop: the budget is spent and at least min passes ran.
func deadline(start time.Time, budget time.Duration, passes, min int) bool {
	return passes >= min && time.Since(start) >= budget
}

type number interface{ ~int64 | ~float64 }

func median[T number](v []T) T { return percentile(v, 50) }

// meanOf is the mean; for pass times it is the inverse of throughput.
func meanOf[T number](v []T) T {
	if len(v) == 0 {
		return 0
	}
	var s T
	for _, x := range v {
		s += x
	}
	return s / T(len(v))
}

// percentile interpolates linearly between the closest ranks.
func percentile[T number](v []T, p float64) T {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + T((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func secondsOf(d []time.Duration) []float64 {
	s := make([]float64, len(d))
	for i, v := range d {
		s[i] = v.Seconds()
	}
	return s
}
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
