package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: greensprint/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineStep-8        	  117740	     10300 ns/op	      69 B/op	       0 allocs/op
BenchmarkFleetDay10k-8       	     166	   7538971 ns/op	 1134776 B/op	     429 allocs/op
BenchmarkGoodputCached-8     	41683478	     28.42 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	greensprint/internal/sim	3.544s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(benchText)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	step := got["BenchmarkEngineStep"]
	if step.NsPerOp != 10300 || step.BytesPerOp == nil || *step.BytesPerOp != 69 ||
		step.AllocsPerOp == nil || *step.AllocsPerOp != 0 {
		t.Errorf("EngineStep = %+v", step)
	}
	if got["BenchmarkGoodputCached"].NsPerOp != 28.42 {
		t.Errorf("fractional ns/op parsed as %v", got["BenchmarkGoodputCached"].NsPerOp)
	}
	if _, err := parseBenchOutput("PASS\nok x 1s\n"); err == nil {
		t.Error("benchmark-free input accepted")
	}
}

func writeBudget(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadBudgetsMerge(t *testing.T) {
	a := writeBudget(t, "a.json", `{"engine_step_allocs_budget": 8,
		"result": {"BenchmarkEngineStep": {"ns_per_op": 10000, "allocs_per_op": 0},
		           "BenchmarkOld": {"ns_per_op": 50},
		           "BenchmarkPinned": {"ns_per_op": 30, "bytes_per_op": 64}}}`)
	b := writeBudget(t, "b.json", `{"engine_step_allocs_budget": 0,
		"result": {"BenchmarkOld": {"ns_per_op": 40},
		"BenchmarkPinned": {"ns_per_op": 45},
		"BenchmarkFleetDay10k": {"ns_per_op": 7538971}}}`)
	set, err := loadBudgets([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.metrics) != 4 {
		t.Fatalf("merged %d budgets, want 4", len(set.metrics))
	}
	// The trajectory keeps the tightest record per benchmark, in
	// either direction: a later faster number ratchets the budget
	// down, a later slower re-recording cannot loosen it.
	if set.metrics["BenchmarkOld"].NsPerOp != 40 {
		t.Errorf("tighter later budget did not win: %v", set.metrics["BenchmarkOld"].NsPerOp)
	}
	if m := set.metrics["BenchmarkPinned"]; m.NsPerOp != 30 || m.BytesPerOp == nil || *m.BytesPerOp != 64 {
		t.Errorf("slower re-recording loosened the budget: %+v", m)
	}
	if cap, ok := set.allocsCaps["BenchmarkEngineStep"]; !ok || cap != 0 {
		t.Errorf("allocs cap = %v, %v; want the minimum (0) across files", cap, ok)
	}
}

func TestDiffVerdicts(t *testing.T) {
	set := &budgetSet{
		metrics: map[string]metric{
			"BenchmarkOK":      {NsPerOp: 100},
			"BenchmarkSlow":    {NsPerOp: 100},
			"BenchmarkFast":    {NsPerOp: 100},
			"BenchmarkGone":    {NsPerOp: 100},
			"BenchmarkOverCap": {NsPerOp: 100},
		},
		allocsCaps: map[string]float64{"BenchmarkOverCap": 8},
	}
	nine := 9.0
	fresh := map[string]metric{
		"BenchmarkOK":      {NsPerOp: 110},
		"BenchmarkSlow":    {NsPerOp: 120},
		"BenchmarkFast":    {NsPerOp: 50},
		"BenchmarkOverCap": {NsPerOp: 100, AllocsPerOp: &nine},
	}
	rep := diff(set, fresh, 0.15)
	if len(rep.missing) != 1 || rep.missing[0] != "BenchmarkGone" {
		t.Errorf("missing = %v", rep.missing)
	}
	if len(rep.failures) != 2 {
		t.Fatalf("failures = %v, want ns/op regression + allocs cap", rep.failures)
	}
	verdicts := map[string]string{}
	for _, r := range rep.rows {
		verdicts[r.name] = r.verdict
	}
	for name, want := range map[string]string{
		"BenchmarkOK":      "ok",
		"BenchmarkSlow":    "REGRESSION",
		"BenchmarkFast":    "improved",
		"BenchmarkOverCap": "OVER ALLOC BUDGET",
	} {
		if verdicts[name] != want {
			t.Errorf("%s verdict = %q, want %q", name, verdicts[name], want)
		}
	}
	table := rep.table()
	for _, frag := range []string{"BenchmarkSlow", "+20.0%", "REGRESSION"} {
		if !strings.Contains(table, frag) {
			t.Errorf("table lacks %q:\n%s", frag, table)
		}
	}
}

// TestDiffAgainstCommittedBudgets is the end-to-end check CI relies
// on: the repo's own BENCH_PR4.json + BENCH_PR7.json parse, and a
// fresh run matching the recorded numbers passes clean.
func TestDiffAgainstCommittedBudgets(t *testing.T) {
	root := "../.."
	set, err := loadBudgets([]string{
		filepath.Join(root, "BENCH_PR4.json"),
		filepath.Join(root, "BENCH_PR7.json"),
		filepath.Join(root, "BENCH_PR9.json"),
		filepath.Join(root, "BENCH_PR12.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.metrics["BenchmarkFleetDay10k"]; !ok {
		t.Fatal("BENCH_PR7.json lacks BenchmarkFleetDay10k")
	}
	if _, ok := set.metrics["BenchmarkYearSingleCell"]; !ok {
		t.Fatal("BENCH_PR9.json lacks BenchmarkYearSingleCell")
	}
	if _, ok := set.metrics["BenchmarkEngineStepReplay"]; !ok {
		t.Fatal("BENCH_PR12.json lacks BenchmarkEngineStepReplay")
	}
	if cap, ok := set.allocsCaps["BenchmarkEngineStep"]; !ok || cap != 0 {
		t.Fatalf("trajectory allocs cap = %v, %v; BENCH_PR9.json ratchets it to 0", cap, ok)
	}
	rep := diff(set, set.metrics, 0.15)
	if len(rep.failures) != 0 || len(rep.missing) != 0 {
		t.Errorf("self-diff fails: %v %v", rep.failures, rep.missing)
	}
}
