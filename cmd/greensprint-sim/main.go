// Command greensprint-sim runs one configured GreenSprint simulation:
// a workload burst served by a green-provisioned rack under a chosen
// strategy, printing the per-epoch schedule and a summary.
//
// Usage:
//
//	greensprint-sim [-config FILE] [-workload W] [-green G]
//	                [-strategy S] [-intensity N] [-duration D]
//	                [-availability Min|Med|Max] [-trace FILE] [-csv]
//	                [-checkpoint FILE] [-resume] [-events FILE]
//	                [-chaos-profile P] [-chaos-seed N] [-fleet FILE] [-batch N]
//
// Flags override the config file. With -fleet the run replaces the
// flat -green rack with a generated heterogeneous fleet: FILE is a
// fleet spec (see internal/fleet) whose weighted server-class
// templates are stamped into racks deterministically under the spec's
// seed. The synthetic supply is sized to the generated fleet's PV
// peak, chaos profiles resolve against the generated topology (zone
// outages strike generated zones), and checkpoints record the
// topology fingerprint so -resume refuses a different fleet. With -checkpoint the simulator
// persists its full state (battery, PSS, predictors, strategy) to FILE
// after every epoch, atomically; an interrupted run restarted with
// -resume continues from the last completed epoch and produces the
// same schedule the uninterrupted run would have. With -events the
// run streams one JSONL observability record per epoch (telemetry in,
// decision out, power-source split); for a fixed seed the stream is
// bit-identical across runs. A run that resumes from a checkpoint
// appends to the log, so it ends as the uninterrupted run's does.
//
// With -chaos-profile the run injects seeded failures: the profile (a
// preset name like "light" or "heavy", or a spec such as
// "crash=2,solar=1:3-6") is resolved under -chaos-seed into a fixed
// fault timeline before the run starts, so the same flags always
// produce the same failures — including across -checkpoint/-resume,
// which therefore require the same chaos flags on the resuming run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/config"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/profile"
	"greensprint/internal/report"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

func main() {
	cfgPath := flag.String("config", "", "JSON config file (optional)")
	wl := flag.String("workload", "", "workload: SPECjbb, Web-Search, Memcached")
	green := flag.String("green", "", "green config: RE-Batt, REOnly, RE-SBatt, SRE-SBatt")
	strat := flag.String("strategy", "", "strategy: Normal, Greedy, Parallel, Pacing, Hybrid")
	intensity := flag.Int("intensity", 0, "burst intensity Int=N (1-12)")
	duration := flag.Duration("duration", 0, "burst duration (e.g. 30m)")
	avail := flag.String("availability", "", "renewable availability: Min, Med, Max")
	tracePath := flag.String("trace", "", "CSV supply trace to replay instead of synthetic availability")
	csvOut := flag.Bool("csv", false, "emit the epoch schedule as CSV instead of a text table")
	ckptPath := flag.String("checkpoint", "", "persist engine state to this file after every epoch")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file if it exists")
	eventsPath := flag.String("events", "", "stream one JSONL observability record per epoch to this file")
	chaosProfile := flag.String("chaos-profile", "", "failure profile enabling chaos injection: light, heavy, or key=weight[:MIN-MAX] spec")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed resolving the -chaos-profile failure timeline")
	fleetPath := flag.String("fleet", "", "fleet spec JSON file replacing -green with a generated heterogeneous fleet")
	batch := flag.Int("batch", -1, "epochs per engine batch: >1 amortizes per-epoch overheads and checkpoints once per batch, 1 steps per epoch, -1 auto (large batches for -fleet runs, per-epoch otherwise)")
	flag.Parse()

	cfg := config.Default()
	if *cfgPath != "" {
		var err error
		if cfg, err = config.Load(*cfgPath); err != nil {
			fatal(err)
		}
	}
	if *wl != "" {
		cfg.Workload = *wl
	}
	if *green != "" {
		cfg.Green = *green
	}
	if *strat != "" {
		cfg.Strategy = *strat
	}
	if *intensity != 0 {
		cfg.BurstIntensity = *intensity
	}
	if *duration != 0 {
		cfg.BurstDuration = config.Duration(*duration)
	}
	if *avail != "" {
		cfg.Availability = *avail
	}
	if *tracePath != "" {
		cfg.SupplyTrace = *tracePath
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	var fleetSpec *fleet.Spec
	if *fleetPath != "" {
		spec, err := fleet.LoadSpec(*fleetPath)
		if err != nil {
			fatal(err)
		}
		fleetSpec = spec
	}
	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	// Ctrl-C / SIGTERM stop the run at the next epoch boundary, after
	// the epoch's checkpoint has been persisted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var sink obs.Sink
	if *eventsPath != "" {
		f, err := openEvents(*eventsPath, *ckptPath, *resume)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = obs.NewJSONL(f)
	}
	if err := run(ctx, os.Stdout, cfg, fleetSpec, *csvOut, *ckptPath, *resume, sink, *chaosProfile, *chaosSeed, *batch); err != nil {
		fatal(err)
	}
}

// openEvents opens the -events log: for append when -resume finds the
// checkpoint, since the log already holds the epochs before it, and
// truncated otherwise.
func openEvents(path, ckptPath string, resume bool) (*os.File, error) {
	mode := os.O_TRUNC
	if _, err := os.Stat(ckptPath); resume && err == nil {
		mode = os.O_APPEND
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "greensprint-sim:", err)
	os.Exit(1)
}

func run(ctx context.Context, w io.Writer, cfg config.Config, fleetSpec *fleet.Spec, csvOut bool, ckptPath string, resume bool, sink obs.Sink, chaosProfile string, chaosSeed int64, batch int) error {
	p, err := cfg.WorkloadProfile()
	if err != nil {
		return err
	}
	green, err := cfg.GreenConfig()
	if err != nil {
		return err
	}
	// A fleet spec overrides the flat rack: generate the topology once
	// here so the supply sizing, chaos resolution and the engine all
	// agree on it (Generate is deterministic, so the engine's own
	// regeneration yields the identical topology).
	var topo *fleet.Topology
	if fleetSpec != nil {
		if topo, err = fleetSpec.Generate(); err != nil {
			return err
		}
		fmt.Fprintln(w, topo.Summary())
	}
	tab, err := profile.Build(p, profile.DefaultLevels)
	if err != nil {
		return err
	}
	strat, err := strategy.ByName(cfg.Strategy, p, tab)
	if err != nil {
		return err
	}
	supply, err := loadSupply(cfg, green, topo)
	if err != nil {
		return err
	}
	sched, err := resolveChaos(w, cfg, green, topo, chaosProfile, chaosSeed)
	if err != nil {
		return err
	}
	eng, err := sim.New(sim.Config{
		Workload: p,
		Green:    green,
		Fleet:    fleetSpec,
		Strategy: strat,
		Table:    tab,
		Burst:    workload.Burst{Intensity: cfg.BurstIntensity, Duration: cfg.BurstDuration.Std()},
		Supply:   supply,
		Lead:     cfg.Lead.Std(),
		Tail:     cfg.Tail.Std(),
		Epoch:    cfg.Epoch.Std(),
		Sink:     sink,
		Chaos:    sched,
	})
	if err != nil {
		return err
	}
	if resume {
		cp, err := sim.ReadCheckpointFile(ckptPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume from: run from the start.
		case err != nil:
			return err
		default:
			if err := eng.Restore(cp); err != nil {
				return err
			}
			fmt.Fprintf(w, "resumed from %s at epoch %d/%d\n", ckptPath, eng.EpochIndex(), eng.TotalEpochs())
		}
	}
	// Batch size: fleet replays default to large batches (the engine's
	// StepN fast path makes whole-year fleet runs practical); flat runs
	// default to per-epoch stepping, preserving the historical
	// checkpoint-per-epoch cadence. StepN(1) is bit-identical to Step,
	// so one loop serves both.
	if batch < 0 {
		if fleetSpec != nil {
			batch = 4096
		} else {
			batch = 1
		}
	}
	if batch < 1 {
		batch = 1
	}
	for {
		select {
		case <-ctx.Done():
			if ckptPath != "" {
				fmt.Fprintf(w, "interrupted at epoch %d/%d; state saved to %s\n",
					eng.EpochIndex(), eng.TotalEpochs(), ckptPath)
			}
			return ctx.Err()
		default:
		}
		ran, err := eng.StepN(batch)
		if err != nil {
			return err
		}
		if ran == 0 {
			break
		}
		if ckptPath != "" {
			cp, err := eng.Checkpoint()
			if err != nil {
				return err
			}
			if err := cp.WriteFile(ckptPath); err != nil {
				return err
			}
		}
	}
	res := eng.Result()

	t := report.NewTable(
		fmt.Sprintf("Schedule: %s on %s, %s strategy, Int=%d for %v",
			p.Name, green.Name, strat.Name(), cfg.BurstIntensity, cfg.BurstDuration.Std()),
		"epoch", "burst", "case", "config", "supply(W)", "green(W)", "batt(W)", "grid(W)",
		"perf(x)", "latency(ms)", "SoC")
	for i, rec := range res.Records {
		t.Add(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%v", rec.InBurst),
			rec.Case.String(),
			rec.Config.String(),
			report.FormatFloat(float64(rec.Supply), 1),
			report.FormatFloat(float64(rec.Green), 1),
			report.FormatFloat(float64(rec.Battery), 1),
			report.FormatFloat(float64(rec.Grid), 1),
			report.FormatFloat(rec.NormPerf, 2),
			report.FormatFloat(rec.Latency*1000, 1),
			report.FormatFloat(rec.SoC, 3),
		)
	}
	if csvOut {
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	} else if err := t.WriteText(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nmean burst performance: %sx over Normal\n", report.FormatFloat(res.MeanNormPerf, 2))
	acct := res.Account
	fmt.Fprintf(w, "energy: green %s, battery %s, grid %s (green fraction %s)\n",
		acct.Green, acct.Battery, acct.Grid, report.FormatFloat(acct.GreenFraction(), 3))
	fmt.Fprintf(w, "battery wear: %s equivalent cycles\n", report.FormatFloat(res.BatteryCycles, 3))
	return nil
}

// resolveChaos turns -chaos-profile/-chaos-seed into a fixed fault
// timeline for the configured run, or nil when chaos is off. The
// resolution happens before the run starts and depends only on the
// flags and the run's topology, so a resumed run passing the same
// flags replays the exact same failures.
func resolveChaos(w io.Writer, cfg config.Config, green cluster.GreenConfig, topo *fleet.Topology, spec string, seed int64) (*chaos.Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	prof, err := chaos.ParseProfile(spec)
	if err != nil {
		return nil, err
	}
	epoch := cfg.Epoch.Std()
	if epoch == 0 {
		epoch = sim.DefaultEpoch
	}
	// The horizon spans lead + burst + tail, as Engine.TotalEpochs
	// counts it.
	epochs := sim.EpochsIn(cfg.Lead.Std()+cfg.BurstDuration.Std()+cfg.Tail.Std(), epoch)
	var sched *chaos.Schedule
	if topo != nil {
		// Fleet run: draw targets from the generated topology so zone
		// outages strike generated zones, not the legacy two-way split.
		sched, err = prof.ResolveFor(seed, epochs, topo.ChaosTopology())
	} else {
		bank, berr := green.NewBank()
		if berr != nil {
			return nil, berr
		}
		sched, err = prof.Resolve(seed, epochs, green.GreenServers, bank.Size())
	}
	if err != nil {
		return nil, err
	}
	sched.Source = spec
	fmt.Fprintf(w, "chaos: profile %q seed %d resolved to %d faults over %d epochs\n",
		spec, seed, len(sched.Faults), epochs)
	return sched, nil
}

// loadSupply replays the configured CSV trace, or synthesizes the
// canonical window for the configured availability class, sized to the
// generated fleet's PV peak when a fleet topology is in effect.
func loadSupply(cfg config.Config, green cluster.GreenConfig, topo *fleet.Topology) (*trace.Trace, error) {
	if cfg.SupplyTrace != "" {
		f, err := os.Open(cfg.SupplyTrace)
		if err != nil {
			return nil, fmt.Errorf("open supply trace: %w", err)
		}
		defer f.Close()
		return trace.ReadCSV(f)
	}
	level, err := cfg.AvailabilityLevel()
	if err != nil {
		return nil, err
	}
	peak := float64(green.PeakGreen())
	if topo != nil {
		peak = float64(topo.PeakGreen())
	}
	total := cfg.Lead.Std() + cfg.BurstDuration.Std() + cfg.Tail.Std()
	return solar.Synthesize(level, total, time.Minute, peak, 42), nil
}
