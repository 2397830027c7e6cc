package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/config"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/solar"
)

func smallConfig() config.Config {
	cfg := config.Default()
	cfg.BurstDuration = config.Duration(10 * time.Minute)
	return cfg
}

func TestRunText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, smallConfig(), nil, false, "", false, nil, "", 0, -1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Schedule", "SPECjbb", "RE-Batt", "Hybrid", "mean burst performance", "battery wear"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, smallConfig(), nil, true, "", false, nil, "", 0, -1); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "epoch,burst,case,config") {
		t.Errorf("csv header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestRunAllStrategiesAndWorkloads(t *testing.T) {
	for _, s := range []string{"Normal", "Greedy", "Parallel", "Pacing", "Hybrid"} {
		cfg := smallConfig()
		cfg.Strategy = s
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, cfg, nil, false, "", false, nil, "", 0, -1); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	for _, w := range []string{"Web-Search", "Memcached"} {
		cfg := smallConfig()
		cfg.Workload = w
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, cfg, nil, false, "", false, nil, "", 0, -1); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestLoadSupplySynthetic(t *testing.T) {
	cfg := smallConfig()
	cfg.Lead = config.Duration(5 * time.Minute)
	tr, err := loadSupply(cfg, cluster.REBatt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 15 {
		t.Errorf("len = %d, want lead+burst minutes", tr.Len())
	}
	cfg.Availability = "Banana"
	if _, err := loadSupply(cfg, cluster.REBatt(), nil); err == nil {
		t.Error("bad availability should error")
	}
}

func TestLoadSupplyFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "supply.csv")
	tr := solar.Synthesize(solar.Med, 10*time.Minute, time.Minute, 635.25, 1)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := smallConfig()
	cfg.SupplyTrace = path
	got, err := loadSupply(cfg, cluster.REBatt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("len = %d", got.Len())
	}
	// Replayed trace drives a full run.
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, cfg, nil, false, "", false, nil, "", 0, -1); err != nil {
		t.Fatal(err)
	}
	// Missing file errors.
	cfg.SupplyTrace = filepath.Join(dir, "missing.csv")
	if _, err := loadSupply(cfg, cluster.REBatt(), nil); err == nil {
		t.Error("missing trace should error")
	}
}

// TestRunEvents checks the -events sink: one parseable JSONL record
// per epoch, and a byte-identical stream when the run repeats.
func TestRunEvents(t *testing.T) {
	capture := func() string {
		var out, events bytes.Buffer
		if err := run(context.Background(), &out, smallConfig(), nil, false, "", false, obs.NewJSONL(&events), "", 0, -1); err != nil {
			t.Fatal(err)
		}
		return events.String()
	}
	first := capture()
	lines := strings.Split(strings.TrimRight(first, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("events = %d lines, want 2 (one per epoch)", len(lines))
	}
	for i, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Epoch != i {
			t.Errorf("line %d has epoch %d", i, ev.Epoch)
		}
		if ev.Time == "" || ev.Case == "" || ev.Config == "" {
			t.Errorf("line %d missing fields: %+v", i, ev)
		}
	}
	if second := capture(); second != first {
		t.Error("event stream is not deterministic across identical runs")
	}
}

// TestRunChaos drives the -chaos-profile path end to end: the resolved
// timeline is announced, chaos events land on the JSONL stream, the
// run stays deterministic, and an interrupted chaos run resumed with
// the same flags reproduces the uninterrupted schedule exactly.
func TestRunChaos(t *testing.T) {
	cfg := smallConfig()
	cfg.BurstDuration = config.Duration(30 * time.Minute) // 6 epochs

	capture := func(ctx context.Context, ckpt string, resume bool) (string, string, error) {
		var out, events bytes.Buffer
		err := run(ctx, &out, cfg, nil, true, ckpt, resume, obs.NewJSONL(&events), "heavy", 3, -1)
		return out.String(), events.String(), err
	}

	out, events, err := capture(context.Background(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `chaos: profile "heavy" seed 3 resolved to`) {
		t.Errorf("missing chaos resolution notice:\n%s", out)
	}
	if !strings.Contains(events, `"chaos":"fault"`) {
		t.Errorf("no chaos fault on the event stream:\n%s", events)
	}
	if _, again, err := capture(context.Background(), "", false); err != nil || again != events {
		t.Errorf("chaos event stream is not deterministic (err %v)", err)
	}

	// Interrupt mid-run, resume with the same chaos flags: bit-identical.
	ckpt := filepath.Join(t.TempDir(), "state.json")
	if _, _, err := capture(newCheckCountCtx(3), ckpt, false); err != context.Canceled {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	resumedOut, _, err := capture(context.Background(), ckpt, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumedOut, "resumed from") || !strings.HasSuffix(resumedOut, lastLines(out, 6)) {
		t.Errorf("resumed chaos run differs from uninterrupted:\nwant tail:\n%s\ngot:\n%s",
			lastLines(out, 6), resumedOut)
	}

	// Resuming without the chaos flags must be refused, not silently
	// continued fault-free.
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, cfg, nil, true, ckpt, true, nil, "", 0, -1); err == nil ||
		!strings.Contains(err.Error(), "chaos") {
		t.Errorf("resume without chaos flags = %v, want chaos mismatch error", err)
	}
}

// lastLines returns the final n lines of s (with trailing newline).
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n") + "\n"
}

// checkCountCtx reports cancellation after its Done channel has been
// consulted a fixed number of times; run checks ctx once per epoch, so
// this interrupts the loop at a deterministic epoch boundary.
type checkCountCtx struct {
	context.Context
	remaining int
	closed    chan struct{}
}

func newCheckCountCtx(n int) *checkCountCtx {
	ch := make(chan struct{})
	close(ch)
	return &checkCountCtx{Context: context.Background(), remaining: n, closed: ch}
}

func (c *checkCountCtx) Done() <-chan struct{} {
	c.remaining--
	if c.remaining < 0 {
		return c.closed
	}
	return nil
}

func (c *checkCountCtx) Err() error {
	if c.remaining < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunFleet drives the -fleet path end to end: the spec file loads
// and validates, the topology census is announced, the run completes
// with per-class stats on the event stream, and chaos resolves against
// the generated topology instead of the flat rack.
func TestRunFleet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	specJSON := `{
		"name": "clitest",
		"total_servers": 40,
		"rack_size": 8,
		"zones": 2,
		"seed": 11,
		"templates": [
			{"name": "web", "weight": 3, "battery_ah": 10, "panels": 3},
			{"name": "batch", "weight": 1, "battery_ah": 3.2, "panels": 2}
		]
	}`
	if err := os.WriteFile(path, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := fleet.LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallConfig()
	var out, events bytes.Buffer
	if err := run(context.Background(), &out, cfg, spec, false, "", false, obs.NewJSONL(&events), "", 0, -1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `fleet "clitest": 40 servers`) {
		t.Errorf("missing fleet summary:\n%s", out.String())
	}
	if !strings.Contains(events.String(), `"classes":[`) ||
		!strings.Contains(events.String(), `"name":"web"`) {
		t.Errorf("no per-class stats on the event stream:\n%s", events.String())
	}

	// Chaos resolves against the generated topology and the run accepts
	// the schedule (a flat-rack resolution would be refused by sim.New).
	out.Reset()
	if err := run(context.Background(), &out, cfg, spec, false, "", false, nil, "heavy", 3, -1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `chaos: profile "heavy" seed 3 resolved to`) {
		t.Errorf("missing chaos resolution notice:\n%s", out.String())
	}

	// Invalid specs are rejected at load time, before any run starts.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","total_servers":0,"templates":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.LoadSpec(bad); err == nil {
		t.Error("invalid spec should error")
	}
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"name":"x","total_server":40}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.LoadSpec(typo); err == nil {
		t.Error("unknown spec field should error")
	}
	if _, err := fleet.LoadSpec(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing spec file should error")
	}
}

func TestRunCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	cfg := smallConfig()
	cfg.BurstDuration = config.Duration(30 * time.Minute) // 6 epochs

	// Reference: the uninterrupted run.
	var ref bytes.Buffer
	if err := run(context.Background(), &ref, cfg, nil, true, "", false, nil, "", 0, -1); err != nil {
		t.Fatal(err)
	}

	// Interrupt after three epochs; the per-epoch checkpoint survives.
	var interrupted bytes.Buffer
	err := run(newCheckCountCtx(3), &interrupted, cfg, nil, true, ckpt, false, nil, "", 0, -1)
	if err != context.Canceled {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	if !strings.Contains(interrupted.String(), "interrupted at epoch 3/") {
		t.Errorf("missing interruption notice:\n%s", interrupted.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not persisted: %v", err)
	}

	// Resume: picks up at epoch 3 and reproduces the reference output
	// exactly (everything after the resume notice is bit-identical).
	var resumed bytes.Buffer
	if err := run(context.Background(), &resumed, cfg, nil, true, ckpt, true, nil, "", 0, -1); err != nil {
		t.Fatal(err)
	}
	out := resumed.String()
	if !strings.Contains(out, "resumed from "+ckpt+" at epoch 3/") {
		t.Errorf("missing resume notice:\n%s", out)
	}
	if !strings.HasSuffix(out, ref.String()) {
		t.Errorf("resumed schedule differs from uninterrupted run:\nwant suffix:\n%s\ngot:\n%s", ref.String(), out)
	}

	// -resume with no checkpoint file on disk is a fresh start.
	var freshStart bytes.Buffer
	missing := filepath.Join(t.TempDir(), "absent.json")
	if err := run(context.Background(), &freshStart, cfg, nil, true, missing, true, nil, "", 0, -1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(freshStart.String(), "resumed") {
		t.Error("fresh start claimed to resume")
	}
	if freshStart.String() != ref.String() {
		t.Error("fresh start with -resume differs from the plain run")
	}
}

// TestRunResumeKeepsEventLog interrupts a 24 h Hybrid run after epoch
// 127 and resumes it with the same -events file: the log must equal
// the uninterrupted run's byte for byte. -resume with no checkpoint
// file on disk starts a fresh log.
func TestRunResumeKeepsEventLog(t *testing.T) {
	dir := t.TempDir()
	cfg := config.Default()
	cfg.Strategy = "Hybrid"
	cfg.BurstDuration = config.Duration(24 * time.Hour)
	runLogged := func(ctx context.Context, events, ckpt string, resume bool) error {
		f, err := openEvents(events, ckpt, resume)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var out bytes.Buffer
		return run(ctx, &out, cfg, nil, false, ckpt, resume, obs.NewJSONL(f), "", 0, -1)
	}

	ref := filepath.Join(dir, "ref.jsonl")
	if err := runLogged(context.Background(), ref, "", false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	events, ckpt := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "state.json")
	if err := runLogged(newCheckCountCtx(127), events, ckpt, false); err != context.Canceled {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	if err := runLogged(context.Background(), events, ckpt, true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(want, []byte("\n")); n <= 127 || !bytes.Equal(got, want) {
		t.Errorf("resumed log (%d lines) differs from the uninterrupted run's (%d lines)", bytes.Count(got, []byte("\n")), n)
	}

	// A fresh start under -resume truncates a stale log.
	if err := runLogged(context.Background(), events, filepath.Join(dir, "absent.json"), true); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(events); err != nil || !bytes.Equal(got, want) {
		t.Errorf("fresh start with -resume left a %d-byte log, want the %d-byte fresh one (%v)", len(got), len(want), err)
	}
}
