package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"greensprint/internal/config"
	"greensprint/internal/core"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
)

func demoConfig() config.Config {
	cfg := config.Default()
	cfg.BurstDuration = config.Duration(10 * time.Minute)
	return cfg
}

func runWith(t *testing.T, ctx context.Context, cfg config.Config, o options) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, o) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// TestRunOnce boots the daemon with a millisecond epoch and a bounded
// tick count; it must serve, step the controller N times, then shut
// down cleanly.
func TestRunOnce(t *testing.T) {
	runWith(t, context.Background(), demoConfig(),
		options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond, once: 4})
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	if err := run(context.Background(), config.Default(),
		options{addr: "127.0.0.1:0", backend: "warp", epoch: time.Second, once: 1}); err == nil {
		t.Error("unknown backend should error")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := config.Default()
	cfg.Workload = "nope"
	if err := run(context.Background(), cfg,
		options{addr: "127.0.0.1:0", backend: "sim", epoch: time.Second, once: 1}); err == nil {
		t.Error("bad workload should error")
	}
}

// TestQTablePersistence runs the daemon twice against the same Q-table
// file: the first run creates it, the second restores it.
func TestQTablePersistence(t *testing.T) {
	cfg := demoConfig()
	path := filepath.Join(t.TempDir(), "q.json")
	for i := 0; i < 2; i++ {
		runWith(t, context.Background(), cfg,
			options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond, once: 3, qtable: path})
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("run %d left no Q-table: %v", i, err)
		}
	}
}

// TestShutdownJoinsTickLoop is the regression test for the shutdown
// race: cancelling the daemon mid-epoch must join the tick loop before
// the final Q-table/checkpoint save. Before the fix, the final save
// could serialize the Q-table while an in-flight Step's Learn mutated
// it (a data race this test exposes under -race), and the final
// persisted checkpoint could miss — or be overwritten by — the last
// epoch. After run returns, the file must hold exactly the epochs the
// controller stepped.
func TestShutdownJoinsTickLoop(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "ck.json")
	qPath := filepath.Join(dir, "q.json")
	cfg := demoConfig()
	o := options{addr: "127.0.0.1:0", backend: "sim", epoch: time.Millisecond,
		qtable: qPath, ckpt: ckptPath}

	ctrl, collector, ticker, err := buildController(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if !ticker {
		t.Fatal("sim backend should tick")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ctrl, collector, ticker, cfg, o) }()

	// Let some epochs tick, then cancel — with a 1 ms epoch the
	// cancellation lands while a Step/save is in flight.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after cancel")
	}

	stepped := ctrl.Snapshot().Epoch
	if stepped == 0 {
		t.Fatal("no epochs ran before cancellation")
	}
	// The join guarantees quiescence: once serve has returned, no
	// in-flight Step may still commit (an unjoined tick loop would
	// step again within a few epoch lengths and overwrite the final
	// checkpoint behind our back).
	time.Sleep(150 * time.Millisecond)
	if after := ctrl.Snapshot().Epoch; after != stepped {
		t.Fatalf("controller stepped %d→%d after serve returned — tick loop not joined", stepped, after)
	}
	b, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatalf("final checkpoint corrupt: %v", err)
	}
	if cp.Count != stepped {
		t.Errorf("final checkpoint at epoch %d, controller stepped %d — final epoch lost", cp.Count, stepped)
	}
	if _, err := os.Stat(qPath); err != nil {
		t.Errorf("no Q-table saved: %v", err)
	}
}

// TestEventLog checks the -events JSONL stream: one parseable record
// per epoch, in order.
func TestEventLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	runWith(t, context.Background(), demoConfig(),
		options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond, once: 3, events: path})

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var n int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if ev.Epoch != n {
			t.Errorf("line %d has epoch %d", n, ev.Epoch)
		}
		if ev.Strategy == "" || ev.Config == "" || ev.Case == "" {
			t.Errorf("line %d missing decision fields: %+v", n, ev)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("events = %d, want 3", n)
	}
}

// TestRunFleet boots the daemon over a generated heterogeneous fleet:
// the spec file loads and validates, the control plane sees the
// fleet's aggregate census on every event, and chaos resolves against
// the generated topology.
func TestRunFleet(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fleet.json")
	specJSON := `{
		"name": "daemonfleet",
		"total_servers": 40,
		"rack_size": 8,
		"seed": 5,
		"templates": [
			{"name": "web", "weight": 3, "battery_ah": 10, "panels": 3},
			{"name": "batch", "weight": 1, "battery_ah": 3.2, "panels": 2}
		]
	}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := fleet.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	events := filepath.Join(dir, "events.jsonl")
	runWith(t, context.Background(), demoConfig(),
		options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond,
			once: 3, events: events, fleetSpec: spec, chaos: "light", chaosSeed: 2})

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var n int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if ev.Chaos != "" {
			continue // fault/recovery transitions ride along
		}
		if ev.Servers != 40 {
			t.Errorf("event %d sees %d servers, want the fleet's 40", n, ev.Servers)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("epoch events = %d, want 3", n)
	}

	// A fleet spec on a non-sim backend is refused by flag validation in
	// main; the helper itself rejects malformed specs.
	if _, err := fleet.LoadSpec(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing spec file should error")
	}
}

// TestCheckpointRotation verifies -checkpoint-keep retains only the N
// newest epoch-numbered snapshots beside the live checkpoint.
func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	runWith(t, context.Background(), demoConfig(),
		options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond,
			once: 5, ckpt: path, ckptKeep: 2})

	if _, err := os.Stat(path); err != nil {
		t.Fatalf("live checkpoint missing: %v", err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		snap := fmt.Sprintf("%s.%08d", path, epoch)
		if _, err := os.Stat(snap); !os.IsNotExist(err) {
			t.Errorf("old snapshot %s not pruned (err=%v)", filepath.Base(snap), err)
		}
	}
	for epoch := 3; epoch < 5; epoch++ {
		snap := fmt.Sprintf("%s.%08d", path, epoch)
		if _, err := os.Stat(snap); err != nil {
			t.Errorf("snapshot %s missing: %v", filepath.Base(snap), err)
		}
	}
	// Rotated snapshots must be valid, restorable checkpoints.
	b, err := os.ReadFile(fmt.Sprintf("%s.%08d", path, 4))
	if err != nil {
		t.Fatal(err)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatalf("rotated snapshot corrupt: %v", err)
	}
	if cp.Count != 5 {
		t.Errorf("snapshot 4 at epoch count %d, want 5", cp.Count)
	}
}

// TestResumeFromCheckpoint runs, stops, then resumes: the second run
// must continue from the persisted epoch count.
func TestResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	cfg := demoConfig()
	runWith(t, context.Background(), cfg,
		options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond, once: 3, ckpt: path})
	runWith(t, context.Background(), cfg,
		options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond, once: 2, ckpt: path, resume: true})

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Count != 5 {
		t.Errorf("resumed run ended at epoch %d, want 5", cp.Count)
	}
}

// readEvents parses a JSONL event file.
func readEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []obs.Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", len(out), err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeContinuesSchedule is the regression test for the resume
// desync: the tick loop used to restart its epoch index at zero while
// the restored controller continued from the checkpointed count, so a
// resumed daemon replayed the burst schedule and the supply trace from
// the beginning. With a burst spanning epochs 0-4, the epochs after
// resume (6, 7) must carry the post-burst offered rate — before the
// fix they carried the in-burst rate of tick indices 0 and 1.
func TestResumeContinuesSchedule(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	events := filepath.Join(dir, "events.jsonl")
	cfg := demoConfig()
	cfg.BurstDuration = config.Duration(25 * time.Millisecond) // epochs 0-4 at 5 ms
	o := options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond,
		ckpt: ckpt, events: events}

	first := o
	first.once = 6
	runWith(t, context.Background(), cfg, first)
	second := o
	second.once = 2
	second.resume = true
	runWith(t, context.Background(), cfg, second)

	evs := readEvents(t, events)
	if len(evs) != 8 {
		t.Fatalf("events = %d, want 8", len(evs))
	}
	for i, ev := range evs {
		if ev.Epoch != i {
			t.Fatalf("event %d has epoch %d — numbering not continuous across resume", i, ev.Epoch)
		}
	}
	inBurst := evs[0].OfferedRate
	if inBurst <= 0 {
		t.Fatalf("epoch 0 offered rate = %v", inBurst)
	}
	post := 0.6 * inBurst
	for _, ev := range evs[5:] {
		if ev.OfferedRate != post {
			t.Errorf("epoch %d offered rate = %v, want post-burst %v — resumed tick loop replayed the schedule from zero",
				ev.Epoch, ev.OfferedRate, post)
		}
	}
}

// TestChaosResumeReplaysTimeline stops a chaos daemon mid-run and
// resumes it with the same flags: the controller-owned injector
// restores its replay position from the v2 checkpoint, the combined
// event stream keeps gap-free epoch numbering, and its fault/recovery
// timeline is bit-identical to an uninterrupted run with the same
// flags.
func TestChaosResumeReplaysTimeline(t *testing.T) {
	dir := t.TempDir()
	cfg := demoConfig()
	base := options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond,
		chaos: "crash=400000,solar=300000,stuck=200000,degrade=200000,breaker=200000", chaosSeed: 7}

	// Uninterrupted reference: 9 epochs in one run.
	ref := base
	ref.once = 9
	ref.events = filepath.Join(dir, "ref.jsonl")
	runWith(t, context.Background(), cfg, ref)

	// Split run: 6 epochs, SIGINT-equivalent shutdown, resume for 3.
	split := base
	split.once = 6
	split.events = filepath.Join(dir, "split.jsonl")
	split.ckpt = filepath.Join(dir, "ck.json")
	runWith(t, context.Background(), cfg, split)
	b, err := os.ReadFile(split.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Chaos == nil {
		t.Fatal("chaos daemon checkpoint carries no injector state")
	}
	resumed := split
	resumed.once = 3
	resumed.resume = true
	runWith(t, context.Background(), cfg, resumed)

	refEvs := readEvents(t, ref.events)
	splitEvs := readEvents(t, split.events)

	type transition struct {
		Epoch  int
		Kind   string
		Mode   string
		Target int
	}
	timeline := func(evs []obs.Event) (faults []transition, epochs []int) {
		for _, ev := range evs {
			if ev.Chaos != "" {
				faults = append(faults, transition{ev.Epoch, ev.Chaos, ev.ChaosMode, ev.ChaosTarget})
				continue
			}
			epochs = append(epochs, ev.Epoch)
		}
		return
	}
	refFaults, refEpochs := timeline(refEvs)
	splitFaults, splitEpochs := timeline(splitEvs)

	if len(refFaults) == 0 {
		t.Fatal("reference run injected no faults; raise the profile weights")
	}
	if len(splitEpochs) != 9 {
		t.Fatalf("split run epochs = %d, want 9", len(splitEpochs))
	}
	for i, e := range splitEpochs {
		if e != i {
			t.Fatalf("split epoch record %d numbered %d — gap across resume", i, e)
		}
	}
	if len(refEpochs) != 9 {
		t.Fatalf("reference run epochs = %d, want 9", len(refEpochs))
	}
	if len(splitFaults) != len(refFaults) {
		t.Fatalf("split run timeline has %d transitions, reference %d:\nsplit %+v\nref   %+v",
			len(splitFaults), len(refFaults), splitFaults, refFaults)
	}
	for i := range refFaults {
		if splitFaults[i] != refFaults[i] {
			t.Errorf("transition %d diverged: split %+v, reference %+v", i, splitFaults[i], refFaults[i])
		}
	}
}

// TestCatchupMatchesLiveTicking proves the -catchup batch is
// equivalent to live ticking through the same epochs: after a
// checkpointed 6-epoch run, resuming with -catchup 2 -once 1 must
// produce byte-identical events 6-8 to resuming with three live ticks,
// because the catch-up callback synthesizes telemetry exactly as the
// tick loop measures it and Controller.StepN replays the same
// per-epoch step under one lock.
func TestCatchupMatchesLiveTicking(t *testing.T) {
	dir := t.TempDir()
	cfg := demoConfig()
	cfg.BurstDuration = config.Duration(25 * time.Millisecond) // epochs 0-4 at 5 ms

	seedCkpt := filepath.Join(dir, "seed.json")
	seed := options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond,
		once: 6, ckpt: seedCkpt}
	runWith(t, context.Background(), cfg, seed)
	ck, err := os.ReadFile(seedCkpt)
	if err != nil {
		t.Fatal(err)
	}
	liveCkpt := filepath.Join(dir, "live.json")
	batCkpt := filepath.Join(dir, "bat.json")
	for _, p := range []string{liveCkpt, batCkpt} {
		if err := os.WriteFile(p, ck, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	liveEvents := filepath.Join(dir, "live.jsonl")
	live := options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond,
		once: 3, ckpt: liveCkpt, resume: true, events: liveEvents}
	runWith(t, context.Background(), cfg, live)

	batEvents := filepath.Join(dir, "bat.jsonl")
	bat := options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond,
		once: 1, catchup: 2, ckpt: batCkpt, resume: true, events: batEvents}
	runWith(t, context.Background(), cfg, bat)

	lb, err := os.ReadFile(liveEvents)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(batEvents)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb) == 0 {
		t.Fatal("live resume emitted no events")
	}
	if string(lb) != string(bb) {
		t.Errorf("catch-up events differ from live ticking:\nlive:\n%s\nbatched:\n%s", lb, bb)
	}
	evs := readEvents(t, batEvents)
	if len(evs) != 3 {
		t.Fatalf("batched resume events = %d, want 3 (2 caught up + 1 live)", len(evs))
	}
	for i, ev := range evs {
		if ev.Epoch != 6+i {
			t.Errorf("event %d has epoch %d, want %d", i, ev.Epoch, 6+i)
		}
	}
	b, err := os.ReadFile(batCkpt)
	if err != nil {
		t.Fatal(err)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Count != 9 {
		t.Errorf("batched resume ended at epoch %d, want 9", cp.Count)
	}
}
