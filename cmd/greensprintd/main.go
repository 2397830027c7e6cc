// Command greensprintd runs the GreenSprint controller as a daemon: an
// epoch ticker drives the Monitor → Predictor → PSS → PMK loop while
// an HTTP API serves status, history, metrics and manual telemetry
// injection.
//
// Two actuation backends are available:
//
//   - -backend sim (default): modelled knobs, with telemetry
//     synthesized from a replayed (or generated) solar trace and the
//     configured workload burst — a self-contained demonstration of
//     the full control loop.
//   - -backend sysfs: also applies each decision to the local Linux
//     host through CPU online masks and cpufreq caps, and re-applies
//     the checkpointed setting on -resume (requires root and a
//     -sysfs-root; telemetry must then be POSTed to /step by an
//     external monitor, and the internal ticker is disabled).
//
// Usage:
//
//	greensprintd [-addr :8479] [-config FILE] [-backend sim|sysfs]
//	             [-sysfs-root DIR] [-epoch 5m] [-once N]
//	             [-checkpoint FILE] [-resume] [-checkpoint-keep N]
//	             [-events FILE] [-pprof]
//	             [-chaos-profile P] [-chaos-seed N] [-fleet FILE]
//	             [-catchup N]
//
// With -catchup N a resumed daemon first steps N missed epochs back to
// back before settling into real-time ticking: they are the tick
// loop's first iterations, measured and stepped exactly as live ticks
// are, but they do not wait on the ticker, do not count against -once,
// and share one checkpoint written after the last of them.
//
// With -fleet FILE (sim backend only) the daemon manages a generated
// heterogeneous fleet instead of the flat Table I rack: FILE is a
// fleet spec (see internal/fleet) stamped deterministically into
// racks, classes and zones. The control plane then sees the fleet's
// aggregate census — total servers, fleet-level PV peak, a
// class-indexed battery bank — and chaos profiles resolve against the
// generated topology, so zone outages strike generated zones.
//
// With -checkpoint the daemon persists the full controller state
// (battery model, PSS accounting, predictors, decision history and the
// Hybrid Q-table) after every epoch and on shutdown; -resume restores
// it on startup so the control loop continues where it left off, and
// -checkpoint-keep N additionally retains the N most recent
// epoch-numbered checkpoint snapshots for long-haul runs. GET /qtable
// serves the learned Q-table for inspection.
//
// Observability: GET /metrics serves the Prometheus text-format
// catalog (always on), -events FILE appends one JSONL record per
// epoch (telemetry in, decision out, power-source split), and -pprof
// mounts net/http/pprof under /debug/pprof/.
//
// With -chaos-profile (sim backend only) the resolved failure timeline
// is handed to the controller itself (core.Options.Chaos): every epoch
// the controller advances the injector under its own lock, so crashed
// servers shrink the live census behind budget division and knob
// actuation, a stuck PSS is welded to the utility feed, battery faults
// degrade the bank, breaker trips force the PDU breaker open, and
// every fault and recovery is emitted as a chaos event on the
// observability stream. The tick loop keeps synthesizing fault-free,
// full-fleet telemetry — the controller applies solar dropouts and
// alive-fraction degradation itself. The timeline depends only on the
// flags, so a daemon restarted with the same flags and -resume (which
// restores the injector's replay position from the checkpoint) replays
// the same failures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"greensprint/internal/atomicfile"
	"greensprint/internal/battery"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/config"
	"greensprint/internal/core"
	"greensprint/internal/fleet"
	"greensprint/internal/httpapi"
	"greensprint/internal/loadgen"
	"greensprint/internal/obs"
	"greensprint/internal/pmk"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// options collects the daemon's flag-derived configuration.
type options struct {
	addr      string
	backend   string
	sysfsRoot string
	epoch     time.Duration
	once      int
	ckpt      string
	ckptKeep  int
	resume    bool
	events    string
	pprof     bool
	chaos     string
	chaosSeed int64
	catchup   int
	fleetSpec *fleet.Spec
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8479", "HTTP listen address")
	cfgPath := flag.String("config", "", "JSON config file (optional)")
	flag.StringVar(&o.backend, "backend", "sim", "actuation backend: sim or sysfs")
	flag.StringVar(&o.sysfsRoot, "sysfs-root", "", "sysfs CPU root for the sysfs backend")
	flag.DurationVar(&o.epoch, "epoch", 0, "override the scheduling epoch (e.g. 2s for demos)")
	flag.IntVar(&o.once, "once", 0, "run N epochs and exit (0 = serve forever)")
	flag.StringVar(&o.ckpt, "checkpoint", "", "file persisting the full controller state after every epoch")
	flag.IntVar(&o.ckptKeep, "checkpoint-keep", 0, "retain the N most recent epoch-numbered checkpoint snapshots (0 = only the live file)")
	flag.BoolVar(&o.resume, "resume", false, "restore controller state from the -checkpoint file on startup")
	flag.StringVar(&o.events, "events", "", "append one JSONL observability record per epoch to this file")
	flag.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.StringVar(&o.chaos, "chaos-profile", "", "failure profile enabling chaos injection: light, heavy, or key=weight[:MIN-MAX] spec (sim backend)")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed resolving the -chaos-profile failure timeline")
	flag.IntVar(&o.catchup, "catchup", 0, "with -resume: step N missed epochs back to back, checkpointed once, before real-time ticking")
	fleetPath := flag.String("fleet", "", "fleet spec JSON file replacing the flat rack with a generated heterogeneous fleet (sim backend)")
	flag.Parse()
	if o.resume && o.ckpt == "" {
		log.Fatal("greensprintd: -resume requires -checkpoint")
	}
	if o.chaos != "" && o.backend != "sim" {
		log.Fatal("greensprintd: -chaos-profile requires -backend sim")
	}
	if *fleetPath != "" {
		if o.backend != "sim" {
			log.Fatal("greensprintd: -fleet requires -backend sim")
		}
		spec, err := fleet.LoadSpec(*fleetPath)
		if err != nil {
			log.Fatalf("greensprintd: %v", err)
		}
		o.fleetSpec = spec
	}
	if o.ckptKeep > 0 && o.ckpt == "" {
		log.Fatal("greensprintd: -checkpoint-keep requires -checkpoint")
	}

	cfg := config.Default()
	if *cfgPath != "" {
		var err error
		if cfg, err = config.Load(*cfgPath); err != nil {
			log.Fatalf("greensprintd: %v", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, o); err != nil {
		log.Fatalf("greensprintd: %v", err)
	}
}

// daemon is one greensprintd run, resolved once from the config and
// the flags: the workload profile, the green view, the controller with
// its sinks, and the options the tick loop reads.
type daemon struct {
	cfg       config.Config
	o         options
	p         workload.Profile
	green     cluster.GreenConfig
	ctrl      *core.Controller
	collector *obs.Collector
	// ticker reports whether the internal epoch loop drives the
	// controller: false for sysfs, where an external monitor POSTs
	// /step.
	ticker bool
}

// run builds the daemon for cfg and serves until ctx is cancelled (or
// -once epochs have run). The -events log is opened here, so the JSONL
// sink joins the Prometheus collector on the controller from its first
// epoch.
func run(ctx context.Context, cfg config.Config, o options) error {
	var events io.Writer
	if o.events != "" {
		f, err := os.OpenFile(o.events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		defer f.Close()
		events = f
	}
	d, err := build(cfg, o, events)
	if err != nil {
		return err
	}
	return d.serve(ctx)
}

// build resolves the run and assembles the controller: its rack over
// the topology's battery bank, the chaos injector, the event sinks (a
// Prometheus collector, plus a JSONL log on events when it is not nil)
// and the actuation backend, then restores the -resume checkpoint.
func build(cfg config.Config, o options, events io.Writer) (*daemon, error) {
	p, err := cfg.WorkloadProfile()
	if err != nil {
		return nil, err
	}
	green, topo, err := fleetView(cfg, o)
	if err != nil {
		return nil, err
	}
	if o.fleetSpec != nil {
		log.Printf("greensprintd: %s", topo.Summary())
	}
	epoch := o.epoch
	if epoch == 0 {
		epoch = cfg.Epoch.Std()
	}
	if epoch == 0 {
		epoch = sim.DefaultEpoch
	}
	// The sim backend models the green servers only; sysfs also drives
	// the local host, whose one knob mirrors every decision.
	var host pmk.Knob
	ticker := true
	switch o.backend {
	case "sim":
	case "sysfs":
		host = pmk.NewSysfs(o.sysfsRoot)
		ticker = false
	default:
		return nil, fmt.Errorf("unknown backend %q", o.backend)
	}
	// The controller's battery view is the class-indexed bank of the
	// topology: the generated fleet's, or the paper rack's one class.
	bank, err := battery.NewClassBank(topo.BatteryClasses())
	if err != nil {
		return nil, err
	}
	inj, err := buildInjector(cfg, topo, epoch, o)
	if err != nil {
		return nil, err
	}
	collector := obs.NewCollector()
	sink := obs.Sink(collector)
	if events != nil {
		sink = obs.Multi(collector, obs.NewJSONL(events))
	}
	ctrl, err := core.New(core.Options{
		Workload:     p,
		Green:        green,
		StrategyName: cfg.Strategy,
		Epoch:        epoch,
		Host:         host,
		Bank:         bank,
		Sink:         sink,
		Chaos:        inj,
	})
	if err != nil {
		return nil, err
	}
	if o.resume {
		if err := loadCheckpoint(ctrl, o.ckpt); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
	}
	return &daemon{cfg: cfg, o: o, p: p, green: green, ctrl: ctrl, collector: collector, ticker: ticker}, nil
}

// serve runs the HTTP API and (for ticker backends) the epoch loop
// until ctx is cancelled, then persists final state. The tick loop is
// joined through a done channel before the final checkpoint save: an
// in-flight Step can neither race the save nor land after it and be
// lost.
func (d *daemon) serve(ctx context.Context) error {
	apiOpts := []httpapi.Option{httpapi.WithMetrics(d.collector)}
	if d.o.pprof {
		apiOpts = append(apiOpts, httpapi.WithPprof())
	}
	srv := &http.Server{Addr: d.o.addr, Handler: httpapi.New(d.ctrl, apiOpts...)}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("greensprintd: serving on %s (workload=%s green=%s strategy=%s epoch=%v backend=%s)",
			d.o.addr, d.p.Name, d.green.Name, d.cfg.Strategy, d.ctrl.Epoch(), d.o.backend)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tickDone := make(chan struct{})
	if d.ticker {
		go func() {
			defer close(tickDone)
			d.tickLoop(ctx, cancel)
		}()
	} else {
		close(tickDone)
	}

	var srvErr error
	select {
	case <-ctx.Done():
	case srvErr = <-errCh:
		cancel()
	}
	// Join the tick loop before persisting: the last in-flight Step
	// must be in the final save, and nothing may mutate the controller
	// while it is serialized.
	<-tickDone

	if d.o.ckpt != "" {
		if _, err := saveCheckpoint(d.ctrl, d.o.ckpt); err != nil {
			log.Printf("greensprintd: checkpoint: %v", err)
		}
	}
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); srvErr == nil {
		srvErr = err
	}
	return srvErr
}

// fleetView resolves the run's effective green view and topology. For
// flat runs it is the configured Table I option and the one-class,
// one-rack topology fleet.FromGreen lifts from it. For -fleet runs the
// spec is generated and the green config becomes the fleet's
// aggregate census: total servers and fleet-level panel count, so the
// control plane's per-server budgeting and the synthesized supply are
// both sized to the generated fleet. The class-indexed battery bank is
// built from the topology (see build).
func fleetView(cfg config.Config, o options) (cluster.GreenConfig, *fleet.Topology, error) {
	green, err := cfg.GreenConfig()
	if err != nil {
		return cluster.GreenConfig{}, nil, err
	}
	if o.fleetSpec == nil {
		rack := fleet.FromGreen(green, 1)
		topo, err := rack.Generate()
		return green, topo, err
	}
	topo, err := o.fleetSpec.Generate()
	if err != nil {
		return cluster.GreenConfig{}, nil, err
	}
	green.Name = topo.Spec.Name
	green.GreenServers = topo.Servers
	green.Panels = topo.Panels
	return green, topo, nil
}

// loadCheckpoint restores the full controller state from a checkpoint
// file written by a previous run; a missing file means a first run.
func loadCheckpoint(ctrl *core.Controller, path string) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil // first run
	}
	if err != nil {
		return err
	}
	cp, err := core.DecodeCheckpoint(b)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := ctrl.Restore(cp); err != nil {
		return err
	}
	log.Printf("greensprintd: resumed from %s at epoch %d", path, cp.Count)
	return nil
}

// saveCheckpoint atomically persists the full controller state through
// the shared tmp+rename writer, so a daemon killed mid-write never
// truncates the previous checkpoint; without an fsync, a power loss
// still can. It returns the bytes it wrote.
func saveCheckpoint(ctrl *core.Controller, path string) ([]byte, error) {
	cp, err := ctrl.Checkpoint()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	return b, atomicfile.WriteFile(path, b, 0o644)
}

// rotateCheckpoints writes b, the bytes just saved to the live
// checkpoint, as path.NNNNNNNN (zero-padded epoch) and prunes numbered
// snapshots beyond keep, so long-haul runs can roll back past a bad
// epoch without the directory growing without bound.
func rotateCheckpoints(path string, b []byte, epoch, keep int) error {
	if err := atomicfile.WriteFile(fmt.Sprintf("%s.%08d", path, epoch), b, 0o644); err != nil {
		return err
	}
	dir, base := filepath.Dir(path), filepath.Base(path)+"."
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var snaps []string
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, base) || strings.Contains(name, ".tmp") {
			continue
		}
		if suf := name[len(base):]; len(suf) == 8 && strings.Trim(suf, "0123456789") == "" {
			snaps = append(snaps, name)
		}
	}
	sort.Strings(snaps) // zero-padded: lexicographic == numeric
	for len(snaps) > keep {
		if err := os.Remove(filepath.Join(dir, snaps[0])); err != nil {
			return err
		}
		snaps = snaps[1:]
	}
	return nil
}

// buildInjector resolves -chaos-profile/-chaos-seed into a chaos
// injector for the controller, or nil when chaos is off. The timeline
// covers the same window the synthesized supply trace does; ticks past
// it simply see no further faults.
func buildInjector(cfg config.Config, topo *fleet.Topology, epoch time.Duration, o options) (*chaos.Injector, error) {
	if o.chaos == "" {
		return nil, nil
	}
	prof, err := chaos.ParseProfile(o.chaos)
	if err != nil {
		return nil, err
	}
	epochs := sim.EpochsIn(cfg.BurstDuration.Std()+time.Hour, epoch)
	var sched *chaos.Schedule
	if o.fleetSpec != nil {
		// Fleet run: draw fault targets from the generated topology so
		// zone outages strike generated zone membership.
		sched, err = prof.ResolveFor(o.chaosSeed, epochs, topo.ChaosTopology())
	} else {
		sched, err = prof.Resolve(o.chaosSeed, epochs, topo.Servers, topo.Units)
	}
	if err != nil {
		return nil, err
	}
	sched.Source = o.chaos
	inj, err := chaos.NewInjector(sched)
	if err != nil {
		return nil, err
	}
	log.Printf("greensprintd: chaos profile %q seed %d resolved to %d faults over %d epochs",
		o.chaos, o.chaosSeed, len(sched.Faults), epochs)
	return inj, nil
}

// tickLoop drives the controller each epoch: an open-loop load
// generator (the Faban role) offers requests to the current server
// setting, its measured latencies flow through the Monitor, and the
// resulting telemetry steps the control loop. The loop always
// synthesizes fault-free, full-fleet telemetry — the controller owns
// the chaos injector, applying solar dropouts and alive-fraction
// degradation itself and emitting fault transitions on the event
// stream. The epoch index is read from the controller's (possibly
// restored) epoch count every tick, so a resumed daemon continues the
// supply trace, the burst schedule and the chaos timeline where the
// previous run stopped instead of replaying them from zero.
func (d *daemon) tickLoop(ctx context.Context, stop func()) {
	ctrl, cfg, o, p, epoch := d.ctrl, d.cfg, d.o, d.p, d.ctrl.Epoch()
	level, err := cfg.AvailabilityLevel()
	if err != nil {
		log.Printf("greensprintd: %v; assuming Med", err)
		level = solar.Med
	}
	burst := cfg.BurstDuration.Std()
	supply := solar.Synthesize(level, burst+time.Hour, time.Minute, float64(d.green.PeakGreen()), 42)
	offered := p.IntensityRate(cfg.BurstIntensity)
	gen, err := loadgen.New(p, 42)
	if err != nil {
		log.Printf("greensprintd: loadgen: %v", err)
		stop()
		return
	}
	mon := core.NewMonitor(p)
	// A resumed daemon's first -catchup iterations replay missed epochs
	// through the same measure-and-step body as a live tick, back to
	// back: they neither wait on the ticker (a shutdown still stops
	// them) nor count against -once, and only the last of them is
	// checkpointed.
	start, catchup := ctrl.Snapshot().Epoch, 0
	if start > 0 {
		catchup = max(o.catchup, 0)
		log.Printf("greensprintd: tick loop continuing at epoch %d (-catchup %d)", start, catchup)
	}
	// Last chaos state logged, so operators see transitions without
	// tailing the event stream.
	prevAlive, prevStuck, prevTripped := d.green.GreenServers, false, false

	t := time.NewTicker(epoch)
	defer t.Stop()
	for k := 0; ; k++ {
		if o.once > 0 && k-catchup >= o.once {
			stop()
			return
		}
		// Measure the epoch that just ended: green production from
		// the trace, request latencies from the load generator run
		// against the currently applied setting. i is the controller's
		// epoch count, so the supply sample and burst window follow
		// the epochs actually stepped across restarts, failed steps
		// and POST /step calls alike; k counts this process's ticks,
		// caught-up ones first (-once budgets the session's live
		// ticks, not the lifetime).
		st := ctrl.Snapshot()
		i, current := st.Epoch, st.Last.Config
		if !current.Valid() {
			current = server.Normal() // before the first decision
		}
		rate := offered
		if time.Duration(i)*epoch >= burst {
			rate = 0.6 * offered
		}
		load, err := gen.Run(current, rate, epoch)
		if err != nil {
			log.Printf("greensprintd: loadgen: %v", err)
			stop()
			return
		}
		load.FeedMonitor(mon.RecordLatency)
		mon.RecordGreenPower(units.Watt(supply.At(supply.Start.Add(time.Duration(i) * epoch))))
		mon.RecordServerPower(p.LoadPower(current, rate))
		tel := mon.Close(epoch)
		tel.OfferedRate = rate
		tel.Goodput = load.Goodput()

		dec, err := ctrl.Step(tel)
		var se *core.SinkError
		if err != nil && !errors.As(err, &se) {
			// The step itself failed: nothing was decided or applied,
			// so there is nothing to persist for this epoch.
			log.Printf("greensprintd: step: %v", err)
		} else {
			if se != nil {
				// A sink failure loses an observation, not an epoch:
				// the decision was applied and recorded, so the
				// checkpoint and the epoch log still happen.
				log.Printf("greensprintd: event sink: %v", se.Err)
			}
			if o.ckpt != "" && k >= catchup-1 {
				if b, err := saveCheckpoint(ctrl, o.ckpt); err != nil {
					log.Printf("greensprintd: checkpoint: %v", err)
				} else if o.ckptKeep > 0 {
					if err := rotateCheckpoints(o.ckpt, b, dec.Epoch, o.ckptKeep); err != nil {
						log.Printf("greensprintd: checkpoint rotate: %v", err)
					}
				}
			}
			log.Printf("epoch %d: config=%v case=%v budget=%v sprint=%.0f%% goodput=%.0f/s p%v=%.0fms",
				dec.Epoch, dec.Config, dec.Case, dec.Budget, dec.SprintFraction*100,
				tel.Goodput, p.Quantile*100, tel.Latency*1000)
			if o.chaos != "" {
				if st := ctrl.Snapshot(); st.Alive != prevAlive || st.PSSStuck != prevStuck || st.BreakerTripped != prevTripped {
					log.Printf("greensprintd: chaos state: alive=%d/%d pss_stuck=%v breaker_tripped=%v",
						st.Alive, d.green.GreenServers, st.PSSStuck, st.BreakerTripped)
					prevAlive, prevStuck, prevTripped = st.Alive, st.PSSStuck, st.BreakerTripped
				}
			}
		}
		if k < catchup && ctx.Err() == nil {
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
