package main

import (
	"fmt"
	"time"
)

// perLayer is the per-layer metric catalog. Every traced run reports
// all of it; a layer the workload's operations never cross reads 0.
// Time metrics are self times (a span's duration minus its children's)
// averaged per call unless the name says per step or per epoch.
var perLayer = []struct{ name, unit string }{
	// The stepping layers: diurnal_year, also checkpoint_resume.
	{"sim.step.self_us", "us"}, // per epoch: StepN minus strategy and sink
	{"strategy.decide.us", "us"},
	{"strategy.learn.us", "us"},
	{"pss.sprint_fraction.probes_per_decide", "count"},
	{"obs.jsonl.emit_us", "us"},
	{"obs.jsonl.bytes_per_event", "bytes"},
	// The simulator checkpoint: checkpoint_resume.
	{"sim.checkpoint.build_ms", "ms"}, // Engine.Checkpoint minus strategy.snapshot
	{"strategy.snapshot_ms", "ms"},
	{"sim.checkpoint.write_ms", "ms"}, // Checkpoint.WriteFile: encode + atomic write
	{"sim.checkpoint.bytes", "bytes"},
	{"sim.checkpoint.bytes_per_epoch", "bytes"}, // growth slope over the epochs stepped
	{"sim.checkpoint.decode_ms", "ms"},
	{"sim.new_ms", "ms"},
	{"sim.restore_ms", "ms"}, // Engine.Restore minus strategy.restore
	{"strategy.restore_ms", "ms"},
	{"sim.checkpoint.p99_ms", "ms"}, // client-side: Checkpoint + WriteFile
	{"sim.resume.p50_ms", "ms"},     // client-side: ReadCheckpointFile + New + Restore
	// The daemon API: daemon_api.
	{"http.step.p99_ms", "ms"}, // client-side round trip
	{"httpapi.step.handler_us", "us"},
	{"http.step.transport_us", "us"}, // client round trip minus handler time
	{"obs.collector.emit_us", "us"},
	{"battery.calls_per_step", "count"},
	{"battery.us_per_step", "us"},
	{"httpapi.metrics.handler_us", "us"},
	{"obs.prometheus.bytes", "bytes"},
	{"http.scrape.p50_ms", "ms"},
	{"http.scrape.p99_ms", "ms"},
	{"core.checkpoint.build_ms", "ms"},
	{"core.checkpoint.marshal_ms", "ms"},
	{"core.checkpoint.bytes", "bytes"},
	{"atomicfile.write_ms", "ms"},
	// The figure harness: paper_figures.
	{"experiments.tables.ms", "ms"},
	{"experiments.headline.ms", "ms"},
	{"experiments.fig1.ms", "ms"},
	{"experiments.fig5.ms", "ms"},
	{"experiments.fig6.ms", "ms"},
	{"experiments.fig7.ms", "ms"},
	{"experiments.fig8.ms", "ms"},
	{"experiments.fig9.ms", "ms"},
	{"experiments.fig10a.ms", "ms"},
	{"experiments.fig10b.ms", "ms"},
	{"experiments.fig11.ms", "ms"},
	{"experiments.day.ms", "ms"},
	{"profile.build_ms", "ms"},   // profile.Build, summed over the three Table II workloads
	{"workload.kernel_ms", "ms"}, // workload.NewKernel, likewise
	// The tracer itself.
	{"trace.overhead_pct", "%"},    // traced minus untraced pass time, over untraced
	{"trace.unaccounted_pct", "%"}, // traced wall time no layer's self time covers
}

// maxUnaccountedPct bounds trace.unaccounted_pct on diurnal_year and
// daemon_api: the self times of the layers must add up to the traced
// wall time of the measured loop to within this share.
const maxUnaccountedPct = 5.0

func newLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// set assigns a catalog metric; a name outside the catalog is a bug.
func set(m map[string]metric, name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the per-layer catalog")
	}
	m[name] = metric{v, old.Unit}
}

// accounting records the share of the measured loop's wall time that
// the layers' summed self time leaves uncovered and checks that spans
// nested. With bounded set, a gap beyond ±maxUnaccountedPct fails the
// check too.
func accounting(out *outcome, m map[string]metric, sum *summary, loopWall time.Duration, bounded bool) {
	gap := 100 * float64(loopWall-sum.self) / float64(loopWall)
	set(m, "trace.unaccounted_pct", gap)
	out.check(!sum.broken, "spans nest")
	if bounded {
		out.check(gap <= maxUnaccountedPct && gap >= -maxUnaccountedPct,
			fmt.Sprintf("per-layer self times cover the traced loop: %.2f%% unaccounted, bound %.0f%%", gap, maxUnaccountedPct))
	}
}

// overhead records the traced pass time over the untraced one.
func overhead(m map[string]metric, traced, untraced []time.Duration) {
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	u := float64(median(untraced))
	set(m, "trace.overhead_pct", 100*(float64(median(traced))-u)/u)
}

// slope is the least-squares slope of y over x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	d := n*sxx - sx*sx
	if d == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / d
}
