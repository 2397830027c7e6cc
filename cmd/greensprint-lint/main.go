// Command greensprint-lint runs the repository's invariant analyzer
// (internal/lint) over the module. Its eight rules cover determinism
// (nondeterm, maprange), crash-safe persistence (atomicwrite),
// checkpoint completeness (statecov for snapshot/restore pairing and
// field coverage, wiretag for wire-struct tags), the single-threaded,
// zero-allocation Step hot path (nogoroutine, allocfree) and
// mutex-guarded access in the concurrent control plane (lockguard).
// The loaded packages are indexed once per run; the whole-program
// rules share that index, and -audit judges the same raw findings a
// check reports.
// It is stdlib-only and loads packages from source, so it runs
// anywhere the Go toolchain's GOROOT sources are installed.
//
// Usage:
//
//	greensprint-lint [-json] [-C dir] [-rules] [-audit] [packages]
//
// Packages default to ./... relative to the module root found by
// walking up from -C (default: the working directory). Diagnostics
// print one per line as file:line: rule: message; with -json a
// machine-readable report ({count, diagnostics}) is written instead,
// for CI artifacts. The exit status is 1 when any diagnostic fires,
// 2 on usage or load errors.
//
// Intentional violations are suppressed in source with
//
//	//greensprint:allow(rule1,rule2) justification
//
// on the offending line or the line above it.
//
// -audit switches from checking to justifying: instead of reporting
// violations, it lists every live allow directive (file:line, rule,
// justification) and flags stale exemptions — directives whose rule no
// longer fires on the covered lines, names an unknown rule, or lacks a
// justification. Stale exemptions exit 1: each one either documents a
// violation that was since fixed (delete it) or silently pre-approves
// a future regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"greensprint/internal/lint"
)

func main() {
	fs := flag.NewFlagSet("greensprint-lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit a JSON report instead of vet-style lines")
	dir := fs.String("C", "", "directory to resolve the module root from (default: cwd)")
	listRules := fs.Bool("rules", false, "print the rule catalog and exit")
	audit := fs.Bool("audit", false, "list every //greensprint:allow directive and flag stale exemptions")
	fs.Parse(os.Args[1:])

	if *listRules {
		for _, r := range lint.DefaultRules() {
			fmt.Printf("%-12s %s\n", r.Name(), r.Doc())
		}
		return
	}
	code, err := run(*dir, *jsonOut, *audit, fs.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greensprint-lint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// report is the JSON artifact shape consumed by CI.
type report struct {
	Count       int               `json:"count"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
}

// auditReport is the JSON artifact shape for -audit.
type auditReport struct {
	Count      int               `json:"count"`
	Stale      int               `json:"stale"`
	Directives []lint.AuditEntry `json:"directives"`
}

// run executes the lint pass and returns the process exit code: 0 for
// a clean tree, 1 when diagnostics fired.
func run(dir string, jsonOut, audit bool, patterns []string, stdout io.Writer) (int, error) {
	if dir == "" {
		var err error
		dir, err = os.Getwd()
		if err != nil {
			return 0, err
		}
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		return 0, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return 0, err
	}
	pkgs, err := loader.LoadAll(patterns)
	if err != nil {
		return 0, err
	}
	if audit {
		return runAudit(pkgs, jsonOut, stdout)
	}
	diags := lint.Run(pkgs, lint.DefaultRules())
	if jsonOut {
		rep := report{Count: len(diags), Diagnostics: diags}
		if rep.Diagnostics == nil {
			rep.Diagnostics = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 0, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}

// runAudit executes the exemption audit and returns the exit code: 0
// when every directive is live and justified, 1 when any is stale.
func runAudit(pkgs []*lint.Package, jsonOut bool, stdout io.Writer) (int, error) {
	entries := lint.Audit(pkgs, lint.DefaultRules())
	stale := 0
	for _, e := range entries {
		if !e.Live {
			stale++
		}
	}
	if jsonOut {
		rep := auditReport{Count: len(entries), Stale: stale, Directives: entries}
		if rep.Directives == nil {
			rep.Directives = []lint.AuditEntry{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 0, err
		}
	} else {
		for _, e := range entries {
			fmt.Fprintln(stdout, e)
		}
		fmt.Fprintf(stdout, "%d directives, %d stale\n", len(entries), stale)
	}
	if stale > 0 {
		return 1, nil
	}
	return 0, nil
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
