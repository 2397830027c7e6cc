package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/obs"
	"greensprint/internal/sim"
	"greensprint/internal/strategy"
	"greensprint/internal/workload"
)

const (
	// resumeDays is the simulated span of one checkpoint_resume pass.
	resumeDays = 2
	// resumeEvery is the crash-and-resume cadence: every simulated 6 h.
	resumeEvery = 72
)

// newStrategy builds a fresh Hybrid for one engine, wrapped in the
// timing probe when tracing.
func newStrategy(in *inputs, tr *tracer) (strategy.Strategy, error) {
	h, err := strategy.NewHybrid(in.p, in.tab)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return h, nil
	}
	return newTracedStrategy(h, tr), nil
}

// newEngine builds a fresh Hybrid and a sim.Engine over it; only
// sim.New counts as set-up. It first collects the previous pass's
// garbage, so every construction and pass starts from the same heap.
func newEngine(in *inputs, tr *tracer, sink obs.Sink, sched *chaos.Schedule, out *outcome) (*sim.Engine, error) {
	runtime.GC()
	strat, err := newStrategy(in, tr)
	if err != nil {
		return nil, err
	}
	cfg := simConfig(in, strat, sink, sched)
	t0 := time.Now()
	eng, err := sim.New(cfg)
	out.setup = append(out.setup, time.Since(t0))
	return eng, err
}

// setupReps is how many extra times each run constructs the program's
// state before measuring, so setup_s is a median over several
// constructions rather than one per pass.
const setupReps = 5

// jsonlSink is the JSONL event log, writing into w.
func jsonlSink(w io.Writer, tr *tracer) obs.Sink {
	s := obs.Sink(obs.NewJSONL(w))
	if tr != nil {
		s = tracedSink{s, tr, lJSONL}
	}
	return s
}

// simConfig is SPECjbb / RE-Batt / Hybrid over the inputs' days. The
// burst window spans the whole run, as in experiments.DayInTheLife, so
// every epoch runs the full predictor → strategy → PSS → battery →
// kernel chain against the replayed diurnal load.
func simConfig(in *inputs, strat strategy.Strategy, sink obs.Sink, sched *chaos.Schedule) sim.Config {
	return sim.Config{
		Workload: in.p,
		Green:    in.green,
		Strategy: strat,
		Table:    in.tab,
		Burst:    workload.Burst{Intensity: 12, Duration: time.Duration(in.days) * 24 * time.Hour},
		Supply:   in.supply,
		Offered:  in.offered,
		Sink:     sink,
		Chaos:    sched,
	}
}

// resultDigest digests an event stream together with the run's Result:
// its aggregates, and its records when withRecords is set (a year's
// records are already spelled out in its event stream).
func resultDigest(stream *streamHash, res *sim.Result, withRecords bool) (string, error) {
	v := struct {
		Stream        string
		Epochs        int
		MeanNormPerf  float64
		Account       any
		BatteryCycles float64
		Records       []sim.EpochRecord `json:",omitempty"`
	}{stream.sum(), len(res.Records), res.MeanNormPerf, res.Account, res.BatteryCycles, nil}
	if withRecords {
		v.Records = res.Records
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:]), nil
}

// diurnalYear runs a 365-day diurnal year (105,120 epochs) per pass,
// one simulated day per StepN call, with no checkpoints. The unit
// operation is one simulated day. One untimed pass first digests the
// whole event stream; the timed passes only count its bytes, and must
// reproduce that pass's stream length and Result.
func diurnalYear(e env) (*outcome, error) {
	in, err := makeInputs(e.seed, 365)
	if err != nil {
		return nil, err
	}
	out, check := &outcome{}, &outcome{}
	full := newStreamHash()
	res, err := yearPass(in, nil, check, full)
	if err != nil {
		return nil, err
	}
	out.absorb(check)
	if out.digest, err = resultDigest(full, res, false); err != nil {
		return nil, err
	}
	want, err := resultDigest(&streamHash{n: full.n}, res, false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupReps; i++ {
		if _, err := newEngine(in, nil, jsonlSink(io.Discard, nil), nil, out); err != nil {
			return nil, err
		}
	}
	var (
		tr       *tracer
		untraced []time.Duration
		sum      summary
		loopWall time.Duration
		stream   int64
	)
	if e.traced {
		tr = newTracer()
	}
	// pass runs one timed year and checks it against the untimed one.
	pass := func(tr *tracer, out *outcome, what string) (int64, error) {
		count := &streamHash{}
		res, err := yearPass(in, tr, out, count)
		if err != nil {
			return 0, err
		}
		got, err := resultDigest(count, res, false)
		out.check(err == nil && got == want, fmt.Sprintf("%s: stream and Result %s, want %s", what, got, want))
		return count.n, nil
	}
	start := time.Now()
	for n := 0; !deadline(start, e.seconds, n, 3); n++ {
		if tr != nil {
			// Every traced pass has an untraced twin: the baseline for
			// trace.overhead_pct, and the same output.
			twin := &outcome{}
			if _, err := pass(nil, twin, "untraced twin"); err != nil {
				return nil, err
			}
			untraced = append(untraced, out.absorb(twin)...)
			tr.reset()
		}
		bytes, err := pass(tr, out, fmt.Sprintf("pass %d", n))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			sum.merge(tr.summarize())
			loopWall += out.passes[len(out.passes)-1]
			stream += bytes
		}
	}
	if tr == nil {
		return out, nil
	}
	m := newLayerMetrics()
	stepLayers(m, &sum, lStepN, stream, out.epochs)
	overhead(m, out.passes, untraced)
	accounting(out, m, &sum, loopWall, true)
	out.layers = m
	return out, tr.dump(filepath.Join(e.workdir, "trace-"+wDiurnal+".jsonl"))
}

// yearPass runs the inputs' days on a fresh engine, one simulated day
// per StepN call, with its event stream going into stream, and returns
// the engine's Result.
func yearPass(in *inputs, tr *tracer, out *outcome, stream *streamHash) (*sim.Result, error) {
	eng, err := newEngine(in, tr, jsonlSink(stream, tr), nil, out)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	for !eng.Done() {
		d0 := time.Now()
		id := tr.begin(lStepN)
		_, err := eng.StepN(dayEpochs)
		tr.end(id)
		out.ops = append(out.ops, time.Since(d0))
		out.attempted++
		if err != nil {
			out.fail(err)
			break
		}
	}
	out.passes = append(out.passes, time.Since(start))
	out.epochs += int64(eng.EpochIndex())
	return eng.Result(), nil
}

// stepLayers fills the stepping layers' metrics from spans rooted at
// root (one StepN call each).
func stepLayers(m map[string]metric, sum *summary, root layer, streamBytes, epochs int64) {
	decide := sum.under(root, lDecide)
	emit := sum.under(root, lJSONL)
	if epochs > 0 {
		set(m, "sim.step.self_us", micros(sum.under(root, root).self)/float64(epochs))
	}
	set(m, "strategy.decide.us", perCall(decide))
	set(m, "strategy.learn.us", perCall(sum.under(root, lLearn)))
	if decide.calls > 0 {
		set(m, "pss.sprint_fraction.probes_per_decide", float64(sum.probes)/float64(decide.calls))
	}
	set(m, "obs.jsonl.emit_us", perCall(emit))
	if emit.calls > 0 {
		set(m, "obs.jsonl.bytes_per_event", float64(streamBytes)/float64(emit.calls))
	}
}

// checkpointResume steps two days of the same inputs under the light
// chaos profile one epoch at a time, saving a checkpoint after every
// epoch as greensprint-sim -checkpoint does, and every simulated 6 h
// resumes as if after a crash: ReadCheckpointFile → New → Restore. The
// stitched event stream and final Result must equal an uninterrupted
// run's. The unit operation is one checkpoint save.
func checkpointResume(e env, dir string) (*outcome, error) {
	in, err := makeInputs(e.seed, resumeDays)
	if err != nil {
		return nil, err
	}
	sched, err := in.lightChaos()
	if err != nil {
		return nil, err
	}
	want, err := uninterrupted(in, sched)
	if err != nil {
		return nil, err
	}
	out := &outcome{digest: want}
	for i := 0; i < setupReps; i++ {
		if _, err := newEngine(in, nil, jsonlSink(io.Discard, nil), sched, out); err != nil {
			return nil, err
		}
	}
	var (
		tr       *tracer
		untraced []time.Duration
		sum      summary
		stream   int64
		rs       resumeStats
	)
	path := filepath.Join(dir, "sim.ckpt")
	if e.traced {
		tr = newTracer()
	}
	start := time.Now()
	for n := 0; !deadline(start, e.seconds, n, 2) || len(out.ops) < minSamples; n++ {
		if tr != nil {
			twin := &outcome{digest: want}
			if _, err := resumePass(in, sched, nil, twin, path, &resumeStats{}); err != nil {
				return nil, err
			}
			untraced = append(untraced, out.absorb(twin)...)
			tr.reset()
		}
		bytes, err := resumePass(in, sched, tr, out, path, &rs)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			sum.merge(tr.summarize())
			stream += bytes
		}
	}
	if tr == nil {
		return out, nil
	}
	m := newLayerMetrics()
	stepLayers(m, &sum, lStepN, stream, out.epochs)
	build := sum.under(lSimCkpt, lSimBuild)
	set(m, "sim.checkpoint.build_ms", perCall(build)/1000)
	set(m, "strategy.snapshot_ms", perCall(sum.under(lSimCkpt, lSnapshot))/1000)
	set(m, "sim.checkpoint.write_ms", perCall(sum.under(lSimCkpt, lSimWrite))/1000)
	set(m, "sim.checkpoint.bytes", meanOf(rs.size))
	set(m, "sim.checkpoint.bytes_per_epoch", slope(rs.epoch, rs.size))
	set(m, "sim.checkpoint.decode_ms", perCall(sum.under(lResume, lSimDecode))/1000)
	set(m, "sim.new_ms", perCall(sum.under(lResume, lSimNew))/1000)
	set(m, "sim.restore_ms", perCall(sum.under(lResume, lSimRestore))/1000)
	set(m, "strategy.restore_ms", perCall(sum.under(lResume, lRestoreStr))/1000)
	set(m, "sim.checkpoint.p99_ms", millis(percentile(out.ops, 99)))
	set(m, "sim.resume.p50_ms", millis(median(rs.resume)))
	overhead(m, out.passes, untraced)
	var traced time.Duration
	for _, p := range out.passes {
		traced += p
	}
	accounting(out, m, &sum, traced, false)
	out.layers = m
	return out, tr.dump(filepath.Join(e.workdir, "trace-"+wResume+".jsonl"))
}

// resumeStats collects the checkpoint sizes by epoch and the resume
// latencies across passes.
type resumeStats struct {
	epoch, size []float64
	resume      []time.Duration
}

// uninterrupted is the reference run: the same inputs and chaos
// timeline stepped straight through with no checkpoints.
func uninterrupted(in *inputs, sched *chaos.Schedule) (string, error) {
	stream := newStreamHash()
	eng, err := newEngine(in, nil, jsonlSink(stream, nil), sched, &outcome{})
	if err != nil {
		return "", err
	}
	if _, err := eng.StepN(eng.TotalEpochs()); err != nil {
		return "", err
	}
	return resultDigest(stream, eng.Result(), true)
}

// resumePass runs one crash-and-resume span and checks its stitched
// output against the uninterrupted run's digest.
func resumePass(in *inputs, sched *chaos.Schedule, tr *tracer, out *outcome, path string, rs *resumeStats) (int64, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	stream := newStreamHash()
	sink := jsonlSink(stream, tr)
	eng, err := newEngine(in, tr, sink, sched, out)
	if err != nil {
		return 0, err
	}

	start := time.Now()
	for !eng.Done() {
		id := tr.begin(lStepN)
		_, err := eng.StepN(1)
		tr.end(id)
		out.attempted++
		if err != nil {
			out.fail(err)
			break
		}

		c0 := time.Now()
		id = tr.begin(lSimCkpt)
		bid := tr.begin(lSimBuild)
		cp, err := eng.Checkpoint()
		tr.end(bid)
		if err == nil {
			wid := tr.begin(lSimWrite)
			err = cp.WriteFile(path)
			tr.end(wid)
		}
		tr.end(id)
		out.ops = append(out.ops, time.Since(c0))
		out.attempted++
		if err != nil {
			out.fail(err)
			break
		}
		if tr != nil {
			if fi, err := os.Stat(path); err == nil {
				rs.epoch = append(rs.epoch, float64(eng.EpochIndex()))
				rs.size = append(rs.size, float64(fi.Size()))
			}
		}

		if eng.EpochIndex()%resumeEvery != 0 || eng.Done() {
			continue
		}
		// Crash: drop the engine and resume from the file alone.
		r0 := time.Now()
		id = tr.begin(lResume)
		next, err := resume(in, sched, tr, sink, path)
		tr.end(id)
		rs.resume = append(rs.resume, time.Since(r0))
		out.attempted++
		if err != nil {
			out.fail(err)
			break
		}
		eng = next
	}
	out.passes = append(out.passes, time.Since(start))
	out.epochs += int64(eng.EpochIndex())
	got, err := resultDigest(stream, eng.Result(), true)
	if err != nil {
		return 0, err
	}
	out.check(got == out.digest, fmt.Sprintf("resumed run digest %s, uninterrupted %s", got, out.digest))
	return stream.n, nil
}

// resume rebuilds an engine from the checkpoint file, as a restarted
// greensprint-sim -resume does. The event sink continues the stream.
func resume(in *inputs, sched *chaos.Schedule, tr *tracer, sink obs.Sink, path string) (*sim.Engine, error) {
	id := tr.begin(lSimDecode)
	cp, err := sim.ReadCheckpointFile(path)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	strat, err := newStrategy(in, tr)
	if err != nil {
		return nil, err
	}
	id = tr.begin(lSimNew)
	eng, err := sim.New(simConfig(in, strat, sink, sched))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(lSimRestore)
	err = eng.Restore(cp)
	tr.end(id)
	return eng, err
}
