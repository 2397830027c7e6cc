package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"greensprint/internal/experiments"
	"greensprint/internal/profile"
	"greensprint/internal/workload"
)

const (
	// processTimeout bounds one child process.
	processTimeout = 150 * time.Second
)

// figureSteps are greensprint-bench's steps in its own order, each the
// experiments call behind it.
var figureSteps = []struct {
	name string
	run  func() error
}{
	{"tables", func() error {
		if err := experiments.TableI().WriteText(io.Discard); err != nil {
			return err
		}
		return experiments.TableII().WriteText(io.Discard)
	}},
	{"headline", func() error { _, err := experiments.HeadlineGains(); return err }},
	{"fig1", func() error { _, err := experiments.Fig1(); return err }},
	{"fig5", func() error { _, err := experiments.Fig5(); return err }},
	{"fig6", func() error { _, err := experiments.Fig6(); return err }},
	{"fig7", func() error { _, err := experiments.Fig7(); return err }},
	{"fig8", func() error { _, err := experiments.Fig8(); return err }},
	{"fig9", func() error { _, err := experiments.Fig9(); return err }},
	{"fig10a", func() error { _, err := experiments.Fig10a(); return err }},
	{"fig10b", func() error { _, err := experiments.Fig10b(); return err }},
	{"fig11", func() error { experiments.Fig11(); return nil }},
	{"day", func() error { _, err := experiments.DayInTheLife(); return err }},
}

// runFigureSteps is the traced paper_figures child: it runs every step
// once in this fresh process (so the profile-table caches start cold,
// as in greensprint-bench) and prints each step's wall time in
// nanoseconds as one JSON object.
func runFigureSteps(w io.Writer) error {
	ns := make(map[string]int64, len(figureSteps))
	for _, s := range figureSteps {
		t0 := time.Now()
		if err := s.run(); err != nil {
			return fmt.Errorf("step %s: %w", s.name, err)
		}
		ns[s.name] = int64(time.Since(t0))
	}
	return json.NewEncoder(w).Encode(ns)
}

// paperFigures runs the greensprint-bench -fig all binary built from
// source in a fresh process per pass, with its default sweep workers.
// Set-up is building the profile tables and queueing kernels of the
// three Table II workloads. The unit operation is one -fig all
// process, and its stdout must be byte-identical every time.
func paperFigures(e env) (*outcome, error) {
	out := &outcome{}
	var builds, kernels []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		b, k, err := tableIISetup()
		if err != nil {
			return nil, err
		}
		builds, kernels = append(builds, b), append(kernels, k)
		out.setup = append(out.setup, b+k)
	}

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var (
		rss    []float64 // peak RSS of each -fig all process, MB
		traced []time.Duration
		steps  = map[string][]time.Duration{}
		stepNS int64
	)
	start := time.Now()
	for n := 0; !deadline(start, e.seconds, n, 5); n++ {
		wall, kib, stdout, err := child(e.figbin, "-fig", "all")
		out.attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		out.passes = append(out.passes, wall)
		out.ops = append(out.ops, wall)
		rss = append(rss, float64(kib)/1024)
		sum := sha256.Sum256(stdout)
		digest := "sha256:" + hex.EncodeToString(sum[:])
		if out.digest == "" {
			out.digest = digest
		}
		out.check(digest == out.digest, fmt.Sprintf("process %d stdout %s, first %s", n, digest, out.digest))

		if !e.traced {
			continue
		}
		wall, _, stdout, err = child(self, "-figsteps")
		out.attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		var ns map[string]int64
		if err := json.Unmarshal(stdout, &ns); err != nil {
			out.fail(fmt.Errorf("figure steps: %w", err))
			continue
		}
		traced = append(traced, wall)
		for _, s := range figureSteps {
			steps[s.name] = append(steps[s.name], time.Duration(ns[s.name]))
			stepNS += ns[s.name]
		}
	}
	out.peakRSSMB = median(rss)
	if !e.traced {
		return out, nil
	}
	m := newLayerMetrics()
	for _, s := range figureSteps {
		set(m, "experiments."+s.name+".ms", millis(median(steps[s.name])))
	}
	set(m, "profile.build_ms", millis(median(builds)))
	set(m, "workload.kernel_ms", millis(median(kernels)))
	overhead(m, traced, out.passes)
	var wall time.Duration
	for _, t := range traced {
		wall += t
	}
	if wall > 0 {
		// The gap is process start-up and exit: the steps run in-process.
		accounting(out, m, &summary{self: time.Duration(stepNS)}, wall, false)
	}
	out.layers = m
	return out, nil
}

// tableIISetup builds the profiling table and the queueing kernel of
// each Table II workload, uncached, and times the two separately.
func tableIISetup() (build, kernel time.Duration, err error) {
	for _, p := range workload.All() {
		t0 := time.Now()
		if _, err := profile.Build(p, profile.DefaultLevels); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		workload.NewKernel(p)
		build += t1.Sub(t0)
		kernel += time.Since(t1)
	}
	return build, kernel, nil
}

// child runs one process to completion and returns its wall time, its
// peak RSS in KiB and its standard output.
func child(bin string, args ...string) (time.Duration, int64, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), processTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%s %v: %w", bin, args, err)
	}
	var kib int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		kib = ru.Maxrss
	}
	return wall, kib, stdout.Bytes(), nil
}
