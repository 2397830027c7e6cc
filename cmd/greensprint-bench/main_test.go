package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greensprint/internal/obs"
	"greensprint/internal/sweep"
)

func TestRunTables(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "tables", "", 1, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "RE-Batt", "SPECjbb", "635.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestRunHeadline(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "headline", "", 1, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4.8") {
		t.Errorf("headline output missing paper reference:\n%s", buf.String())
	}
}

func TestRunFig11WithCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, "11", dir, 1, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crossover") {
		t.Error("fig11 output missing crossover")
	}
	b, err := os.ReadFile(filepath.Join(dir, "fig11.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "sprint_hours_per_year,benefit_usd_per_kw_year") {
		t.Errorf("csv header: %q", strings.SplitN(string(b), "\n", 2)[0])
	}
}

func TestRunFig10b(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "10b", "", 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"Greedy", "Parallel", "Pacing", "Hybrid"} {
		if !strings.Contains(buf.String(), s) {
			t.Errorf("missing %s bar", s)
		}
	}
}

func TestRunFig1CSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, "1", dir, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig1.csv")); err != nil {
		t.Errorf("fig1.csv not written: %v", err)
	}
	if !strings.Contains(buf.String(), "workload_intensity") {
		t.Error("summary missing series name")
	}
}

func TestRunUnknownFig(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", "", 1, nil); err == nil {
		t.Error("unknown figure should error")
	}
}

// TestRunDaySharded checks -windows flag parity with examples/nrel-replay:
// the day replay split into checkpoint-chained windows reports the same
// summary and emits a byte-identical -events stream as the sequential run.
func TestRunDaySharded(t *testing.T) {
	day := func(windows int) (summary, events string) {
		var out, ev bytes.Buffer
		if err := run(&out, "day", "", windows, obs.NewJSONL(&ev)); err != nil {
			t.Fatalf("windows=%d: %v", windows, err)
		}
		return out.String(), ev.String()
	}
	seqOut, seqEvents := day(1)
	if !strings.Contains(seqOut, "sprint") {
		t.Fatalf("day summary missing:\n%s", seqOut)
	}
	if n := strings.Count(seqEvents, "\n"); n != 288 {
		t.Errorf("events = %d lines, want 288 (5-minute epochs over 24 h)", n)
	}
	shardOut, shardEvents := day(3)
	if !strings.Contains(shardOut, "replayed as 3 checkpoint-chained windows") {
		t.Errorf("sharded run missing window notice:\n%s", shardOut)
	}
	if shardEvents != seqEvents {
		t.Error("sharded event stream differs from sequential")
	}
	// The summary line itself must match too (ignore the window notice).
	if !strings.Contains(shardOut, strings.TrimPrefix(seqOut, "==== day ====\n")) {
		t.Errorf("sharded summary differs:\nseq:\n%s\nsharded:\n%s", seqOut, shardOut)
	}
}

// allDigest is the sha256 of the full -fig all stdout (the same digest
// perfbench/digests.json pins for paper_figures).
const allDigest = "sha256:2a661295d81f5e3ec2acdc6568d7c94bdf5b5c30f5a3e7c796e3e20e1cbf2840"

// eachWorkers runs f as subtest name once with the sweep pool forced
// serial and once at its default size, restoring the setting afterwards.
func eachWorkers(t *testing.T, name string, f func(t *testing.T)) {
	for _, n := range []int{1, 0} {
		t.Run(fmt.Sprintf("%s/workers=%d", name, n), func(t *testing.T) {
			prev := sweep.SetDefaultWorkers(n)
			defer sweep.SetDefaultWorkers(prev)
			f(t)
		})
	}
}

// TestRunAllDigest pins every byte of the -fig all output, serial and
// parallel.
func TestRunAllDigest(t *testing.T) {
	eachWorkers(t, "all", func(t *testing.T) {
		var buf bytes.Buffer
		if err := run(&buf, "all", "", 1, nil); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("sha256:%x", sha256.Sum256(buf.Bytes())); got != allDigest {
			t.Errorf("-fig all digest = %s, want %s", got, allDigest)
		}
	})
}

// TestRunFailureKeepsSerialPrefix makes one step's CSV export fail (a
// directory sits where the file goes) and checks that the output holds
// exactly what a serial run writes before it stops: every earlier step,
// then the failing step's header and the text it printed before the
// export. The error names the failing step.
func TestRunFailureKeepsSerialPrefix(t *testing.T) {
	var full bytes.Buffer
	if err := run(&full, "all", "", 1, nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ csv, step, next string }{
		{"fig1.csv", "1", "5"},
		{"Fig6_Med.csv", "6", "7"},
		{"fig11.csv", "11", "day"},
	}
	for _, c := range cases {
		end := strings.Index(full.String(), "==== "+c.next+" ====\n")
		if end < 0 {
			t.Fatalf("no %q step in the -fig all output", c.next)
		}
		want := full.String()[:end]
		eachWorkers(t, c.csv, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, c.csv), 0o755); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err := run(&buf, "all", dir, 1, nil)
			if err == nil || !strings.HasPrefix(err.Error(), "fig "+c.step+": ") {
				t.Fatalf("err = %v, want a fig %s error", err, c.step)
			}
			if buf.String() != want {
				t.Errorf("output is not the serial prefix before step %s: got %d bytes, want %d", c.next, buf.Len(), len(want))
			}
		})
	}
}
