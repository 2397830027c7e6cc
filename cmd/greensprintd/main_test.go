package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"greensprint/internal/config"
	"greensprint/internal/core"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/server"
	"greensprint/internal/sim"
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

// TestRunRejectsNegativeEpoch: -epoch -1s is an error, not a ticker
// panic.
func TestRunRejectsNegativeEpoch(t *testing.T) {
	if err := run(context.Background(), demoConfig(),
		options{addr: "127.0.0.1:0", backend: "sim", epoch: -time.Second, once: 1}); err == nil {
		t.Error("negative epoch should error")
	}
}

// TestBuildDefaultsEpoch: a config without an epoch and no -epoch flag
// runs at sim.DefaultEpoch, and the chaos timeline is resolved for it
// rather than dividing by a zero epoch.
func TestBuildDefaultsEpoch(t *testing.T) {
	cfg := demoConfig()
	cfg.Epoch = 0
	d, err := build(cfg, options{backend: "sim", chaos: "light"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ctrl.Epoch(); got != sim.DefaultEpoch {
		t.Errorf("epoch = %v, want %v", got, sim.DefaultEpoch)
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

// TestShutdownJoinsTickLoop is the regression test for the shutdown
// race: cancelling the daemon mid-epoch must join the tick loop before
// the final checkpoint save. Before the fix, the final save could
// serialize the Q-table while an in-flight Step's Learn mutated it (a
// data race this test exposes under -race), and the final persisted
// checkpoint could miss — or be overwritten by — the last epoch. After
// serve returns, the file must hold exactly the epochs the controller
// stepped.
func TestShutdownJoinsTickLoop(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "ck.json")
	o := options{addr: "127.0.0.1:0", backend: "sim", epoch: time.Millisecond, ckpt: ckptPath}

	d, err := build(demoConfig(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ticker {
		t.Fatal("sim backend should tick")
	}
	ctrl := d.ctrl
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.serve(ctx) }()

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
// newest epoch-numbered snapshots beside the live checkpoint, the
// newest of them byte-identical to the live file.
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
	// Rotated snapshots must be valid, restorable checkpoints, and the
	// newest one the live checkpoint's bytes.
	b, err := os.ReadFile(fmt.Sprintf("%s.%08d", path, 4))
	if err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(live) {
		t.Error("newest snapshot differs from the live checkpoint")
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

// resumeBothWays seeds a checkpoint with a six-epoch run of base, then
// resumes two copies of it with -events: one for three live ticks and
// one with -catchup 2 -once 1. It returns the two resumed runs.
func resumeBothWays(t *testing.T, cfg config.Config, base options) (live, bat options) {
	t.Helper()
	dir := t.TempDir()
	seed := base
	seed.once, seed.ckpt = 6, filepath.Join(dir, "seed.json")
	runWith(t, context.Background(), cfg, seed)
	ck, err := os.ReadFile(seed.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	live, bat = base, base
	live.once, live.ckpt, live.events = 3, filepath.Join(dir, "live.json"), filepath.Join(dir, "live.jsonl")
	bat.once, bat.catchup, bat.ckpt, bat.events = 1, 2, filepath.Join(dir, "bat.json"), filepath.Join(dir, "bat.jsonl")
	live.resume, bat.resume = true, true
	for _, o := range []options{live, bat} {
		if err := os.WriteFile(o.ckpt, ck, 0o644); err != nil {
			t.Fatal(err)
		}
		runWith(t, context.Background(), cfg, o)
	}
	return live, bat
}

// TestCatchupMatchesLiveTicking proves -catchup equivalent to live
// ticking through the same epochs: after a checkpointed 6-epoch run,
// resuming with -catchup 2 -once 1 must produce byte-identical events
// 6-8 to resuming with three live ticks, because the caught-up epochs
// are the tick loop's own first iterations, measured and stepped as
// live ticks are.
func TestCatchupMatchesLiveTicking(t *testing.T) {
	cfg := demoConfig()
	cfg.BurstDuration = config.Duration(25 * time.Millisecond) // epochs 0-4 at 5 ms
	live, bat := resumeBothWays(t, cfg, options{addr: "127.0.0.1:0", backend: "sim", epoch: 5 * time.Millisecond})
	liveEvents, batEvents, batCkpt := live.events, bat.events, bat.ckpt

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

// TestCatchupMatchesLiveTickingUnderChaos is the chaos variant, with the
// CI chaos smoke's profile and seed. At a 50 ms epoch the timeline
// crashes server 0 at epoch 2 and heals it at epoch 7, inside the
// catch-up, and sticks the PSS at epoch 5 until epoch 8, the first live
// tick. Catch-up must emit byte-identical events with the same chaos
// transitions, end at the same epoch, and rotate one -checkpoint-keep
// snapshot for the whole caught-up batch.
func TestCatchupMatchesLiveTickingUnderChaos(t *testing.T) {
	live, bat := resumeBothWays(t, demoConfig(), options{addr: "127.0.0.1:0", backend: "sim",
		epoch: 50 * time.Millisecond, ckptKeep: 4,
		chaos: "crash=2000,solar=2000,stuck=3000,degrade=3000", chaosSeed: 7})

	lb, err := os.ReadFile(live.events)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(bat.events)
	if err != nil {
		t.Fatal(err)
	}
	if string(lb) != string(bb) {
		t.Errorf("catch-up events differ from live ticking:\nlive:\n%s\ncatch-up:\n%s", lb, bb)
	}
	transitions := func(path string) (out []string, caughtUp int) {
		for _, ev := range readEvents(t, path) {
			if ev.Chaos != "" {
				out = append(out, fmt.Sprintf("%d %s %s %d", ev.Epoch, ev.Chaos, ev.ChaosMode, ev.ChaosTarget))
				if ev.Epoch < 8 {
					caughtUp++
				}
			}
		}
		return out, caughtUp
	}
	lt, _ := transitions(live.events)
	bt, caughtUp := transitions(bat.events)
	if caughtUp == 0 {
		t.Fatalf("no chaos transition in the caught-up epochs %v; the test no longer crosses a fault", bt)
	}
	if fmt.Sprint(lt) != fmt.Sprint(bt) {
		t.Errorf("chaos transitions: catch-up %v, live %v", bt, lt)
	}

	count := func(path string) int {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := core.DecodeCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		return cp.Count
	}
	if l, b := count(live.ckpt), count(bat.ckpt); l != 9 || b != 9 {
		t.Errorf("final epochs: live %d, catch-up %d, want 9", l, b)
	}
	// One rotation for the caught-up epochs 6-7, one for live tick 8.
	if _, err := os.Stat(fmt.Sprintf("%s.%08d", bat.ckpt, 6)); !os.IsNotExist(err) {
		t.Errorf("catch-up rotated a snapshot for epoch 6 (err=%v), want one rotation for the batch", err)
	}
	for epoch, want := range map[int]int{7: 8, 8: 9} {
		if got := count(fmt.Sprintf("%s.%08d", bat.ckpt, epoch)); got != want {
			t.Errorf("snapshot %d at epoch count %d, want %d", epoch, got, want)
		}
	}
}

// TestCatchupStopsOnShutdown: caught-up epochs skip the ticker but not
// a shutdown. A daemon cancelled during -catchup stops after the epoch
// in flight, and the shutdown save checkpoints it.
func TestCatchupStopsOnShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := options{addr: "127.0.0.1:0", backend: "sim", epoch: time.Second,
		ckpt: filepath.Join(t.TempDir(), "ck.json")}
	runWith(t, ctx, demoConfig(), o) // one epoch, then the shutdown
	o.resume, o.catchup = true, 50
	runWith(t, ctx, demoConfig(), o)
	b, err := os.ReadFile(o.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Count != 2 {
		t.Errorf("cancelled catch-up ended at epoch %d, want 2 (one caught-up epoch)", cp.Count)
	}
}

// failFirstKnob is a host knob whose first Apply fails.
type failFirstKnob struct {
	failed bool
	cur    server.Config
}

func (k *failFirstKnob) Apply(c server.Config) error {
	if !k.failed {
		k.failed = true
		return errors.New("host knob: injected failure")
	}
	k.cur = c
	return nil
}

func (k *failFirstKnob) Current() server.Config { return k.cur }

// eventRecorder is an obs.Sink keeping every event it receives.
type eventRecorder struct{ evs []obs.Event }

func (r *eventRecorder) Emit(ev obs.Event) error {
	r.evs = append(r.evs, ev)
	return nil
}

// TestTickLoopFollowsControllerEpoch is the regression test for the
// telemetry drift: the tick loop used to index the supply trace and
// the burst schedule by ticks taken, so a Step that failed (here, the
// host knob's first Apply) pushed every later epoch's telemetry one
// tick ahead. With a one-epoch burst, recorded epoch 0 must carry the
// in-burst offered rate and epoch 1 the post-burst rate — before the
// fix epoch 0 carried the post-burst rate of tick 1.
func TestTickLoopFollowsControllerEpoch(t *testing.T) {
	const epoch = 5 * time.Millisecond
	cfg := demoConfig()
	cfg.BurstDuration = config.Duration(epoch)
	o := options{backend: "sim", epoch: epoch, once: 3}
	p, err := cfg.WorkloadProfile()
	if err != nil {
		t.Fatal(err)
	}
	green, _, err := fleetView(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	rec := &eventRecorder{}
	ctrl, err := core.New(core.Options{Workload: p, Green: green, StrategyName: cfg.Strategy,
		Epoch: epoch, Host: &failFirstKnob{}, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cfg: cfg, o: o, p: p, green: green, ctrl: ctrl}
	d.tickLoop(context.Background(), func() {})

	// Three ticks: the first Step fails, the next two record epochs
	// 0 and 1.
	if len(rec.evs) != 2 {
		t.Fatalf("events = %d, want 2", len(rec.evs))
	}
	inBurst := p.IntensityRate(cfg.BurstIntensity)
	for i, want := range []float64{inBurst, 0.6 * inBurst} {
		if ev := rec.evs[i]; ev.Epoch != i || ev.OfferedRate != want {
			t.Errorf("event %d: epoch %d offered rate %v, want epoch %d at %v", i, ev.Epoch, ev.OfferedRate, i, want)
		}
	}
}
