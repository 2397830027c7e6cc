// Command greensprint-benchdiff compares a fresh `go test -bench` run
// against the budgets committed in the repo's BENCH_*.json files and
// fails on regressions — a self-contained, stdlib-only stand-in for
// benchstat that understands this repo's budget schema.
//
// Usage:
//
//	go test -run=X -bench . -benchmem ./... | tee bench.txt
//	greensprint-benchdiff -budgets BENCH_PR4.json,BENCH_PR7.json,BENCH_PR9.json,BENCH_PR12.json,BENCH_PR24.json bench.txt
//
// Each budgets file is the JSON this repo commits per optimization PR:
// the "result" object maps benchmark names to their recorded
// {ns_per_op, bytes_per_op, allocs_per_op}, and an optional
// "engine_step_allocs_budget" caps BenchmarkEngineStep's allocs/op.
// The files form a trajectory: a benchmark recorded in several PRs is
// compared against its tightest (lowest ns/op) budget, and the allocs
// cap is the minimum across files, so a later re-recording can never
// silently loosen an earlier PR's achievement. The tool prints a
// benchstat-style table (old time, new time, delta) and exits non-zero
// when
//
//   - a benchmark's ns/op regresses more than -threshold (default
//     15%) past its recorded budget,
//   - BenchmarkEngineStep exceeds the allocs/op budget, or
//   - a budgeted benchmark is missing from the fresh run (so a
//     deleted benchmark cannot silently retire its budget; pass
//     -allow-missing during partial local runs).
//
// Improvements are reported but never fail: budgets are ratchets, not
// pins.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		budgets      = flag.String("budgets", "", "comma-separated BENCH_*.json budget files (required)")
		threshold    = flag.Float64("threshold", 0.15, "max tolerated ns/op regression as a fraction (0.15 = +15%)")
		allowMissing = flag.Bool("allow-missing", false, "tolerate budgeted benchmarks absent from the fresh run")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: greensprint-benchdiff -budgets a.json[,b.json] [flags] bench.txt\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *budgets == "" || flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var files []string
	for _, f := range strings.Split(*budgets, ",") {
		if f = strings.TrimSpace(f); f != "" {
			files = append(files, f)
		}
	}
	budget, err := loadBudgets(files)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greensprint-benchdiff:", err)
		os.Exit(1)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "greensprint-benchdiff:", err)
		os.Exit(1)
	}
	fresh, err := parseBenchOutput(string(raw))
	if err != nil {
		fmt.Fprintln(os.Stderr, "greensprint-benchdiff:", err)
		os.Exit(1)
	}

	report := diff(budget, fresh, *threshold)
	fmt.Print(report.table())
	for _, f := range report.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if len(report.missing) > 0 && !*allowMissing {
		for _, name := range report.missing {
			fmt.Fprintf(os.Stderr, "FAIL: budgeted benchmark %s missing from the fresh run\n", name)
		}
		os.Exit(1)
	}
	if len(report.failures) > 0 {
		os.Exit(1)
	}
}
