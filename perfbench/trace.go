package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"greensprint/internal/atomicfile"
	"greensprint/internal/battery"
	"greensprint/internal/obs"
	"greensprint/internal/server"
	"greensprint/internal/strategy"
	"greensprint/internal/units"
)

// layer names a traced boundary. Root layers are opened by the
// benchmark's own loop around one client-visible operation; the others
// are opened by the probes below, which the benchmark passes in through
// interfaces the program already has, so no package changes.
type layer uint8

const (
	lStepN          layer = iota // root: one sim.Engine.StepN call
	lDecide                      // strategy.Strategy.Decide
	lLearn                       // strategy.Strategy.Learn
	lSnapshot                    // strategy.Strategy.SnapshotState
	lRestoreStr                  // strategy.Strategy.RestoreState
	lJSONL                       // obs.JSONL.Emit
	lCollector                   // obs.Collector.Emit
	lSimCkpt                     // root: Engine.Checkpoint + Checkpoint.WriteFile
	lSimBuild                    // Engine.Checkpoint
	lSimWrite                    // Checkpoint.WriteFile
	lResume                      // root: ReadCheckpointFile + New + Restore
	lSimDecode                   // sim.ReadCheckpointFile
	lSimNew                      // sim.New
	lSimRestore                  // Engine.Restore
	lHTTPStep                    // root: client POST /step
	lStepHandler                 // httpapi handler for /step
	lHTTPScrape                  // root: client GET /metrics
	lMetricsHandler              // httpapi handler for /metrics
	lBattery                     // any battery.Store method
	lCoreCkpt                    // root: the daemon's saveCheckpoint sequence
	lCoreBuild                   // core.Controller.Checkpoint
	lCoreMarshal                 // json.Marshal of the checkpoint
	lAtomicWrite                 // atomicfile.WriteFile
	numLayers
)

var layerNames = [numLayers]string{
	"sim.stepn", "strategy.decide", "strategy.learn", "strategy.snapshot", "strategy.restore",
	"obs.jsonl.emit", "obs.collector.emit",
	"sim.checkpoint", "sim.checkpoint.build", "sim.checkpoint.write",
	"sim.resume", "sim.checkpoint.decode", "sim.new", "sim.restore",
	"http.step", "httpapi.step.handler", "http.scrape", "httpapi.metrics.handler",
	"battery", "core.checkpoint", "core.checkpoint.build", "core.checkpoint.marshal", "atomicfile.write",
}

// span is one timed interval; start and end are nanoseconds on the
// monotonic clock since the tracer's origin.
type span struct {
	layer      layer
	parent     int32
	start, end int64
}

// tracer keeps spans in memory; they are summarized and written out
// after the measured pass. A nil *tracer is the untraced run: begin and
// end are no-ops, so the benchmark's loops are the same code either
// way. Spans nest through a single stack, which is sound because every
// workload is one closed loop with at most one operation in flight (the
// HTTP handler's spans open and close while the client's root span is
// open).
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	open   []int32
	broken bool // a span closed out of order or never closed
	// probes counts SprintFraction calls. They are counted, not timed:
	// at ~100 ns each, timing them would stretch the run several-fold.
	probes atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, parent: parent, start: now})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].end = now
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		t.broken = true
	} else {
		t.open = t.open[:n-1]
	}
	t.mu.Unlock()
}

// reset drops the recorded spans, keeping their storage.
func (t *tracer) reset() {
	t.spans, t.open, t.broken = t.spans[:0], t.open[:0], false
	t.probes.Store(0)
}

// layerStat aggregates the spans of one layer.
type layerStat struct {
	calls       int64
	total, self time.Duration
}

func (s layerStat) add(o layerStat) layerStat {
	return layerStat{s.calls + o.calls, s.total + o.total, s.self + o.self}
}

// summary aggregates a pass's spans by the root layer they ran under
// and by their own layer.
type summary struct {
	stat   [numLayers][numLayers]layerStat // [root layer][layer]
	self   time.Duration                   // Σ self time over every span
	probes int64
	broken bool
}

// summarize computes every span's self time: its duration minus its
// children's durations. Spans open on one stack, so children nest inside
// their parent and do not overlap unless a span closed out of order,
// which marks the summary broken. When spans nest, the self times of a
// tree add up to its root's duration exactly; the accounting check
// relies on that.
func (t *tracer) summarize() *summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans
	children := make([]int64, len(sp))
	root := make([]int32, len(sp))
	out := &summary{broken: t.broken || len(t.open) > 0, probes: t.probes.Load()}
	for i := range sp {
		p := sp[i].parent
		if p < 0 {
			root[i] = int32(i)
			continue
		}
		root[i] = root[p]
		children[p] += sp[i].end - sp[i].start
	}
	for i := range sp {
		dur := sp[i].end - sp[i].start
		self := time.Duration(dur - children[i])
		st := &out.stat[sp[root[i]].layer][sp[i].layer]
		st.calls++
		st.total += time.Duration(dur)
		st.self += self
		out.self += self
	}
	return out
}

// merge folds another pass's summary into s.
func (s *summary) merge(o *summary) {
	for r := range s.stat {
		for l := range s.stat[r] {
			s.stat[r][l] = s.stat[r][l].add(o.stat[r][l])
		}
	}
	s.self += o.self
	s.probes += o.probes
	s.broken = s.broken || o.broken
}

// under returns layer l's aggregate within root layer r.
func (s *summary) under(r, l layer) layerStat { return s.stat[r][l] }

// dump writes the recorded spans as JSON Lines, one span per line.
func (t *tracer) dump(path string) error {
	var b bytes.Buffer
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(&b, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.parent, layerNames[s.layer], s.start, s.end)
	}
	t.mu.Unlock()
	return atomicfile.WriteFile(path, b.Bytes(), 0o644)
}

// perCall is a layer's mean self time per call, in microseconds.
func perCall(s layerStat) float64 {
	if s.calls == 0 {
		return 0
	}
	return micros(s.self) / float64(s.calls)
}

// tracedStrategy times Decide, Learn, SnapshotState and RestoreState
// and counts the SprintFraction probes each Decide makes. It returns
// the wrapped strategy's results unchanged.
type tracedStrategy struct {
	inner strategy.Strategy
	tr    *tracer
	probe *sprintProbe
	count func(units.Watt) float64 // probe.call, bound once
}

// sprintProbe counts calls into the engine's SprintFraction for the
// Decide in progress. It is per-Decide scratch, kept off tracedStrategy
// so the strategy wrapper carries no state its snapshot pair would need
// to (the repository lint's statecov rule checks exactly that).
type sprintProbe struct {
	tr   *tracer
	frac func(units.Watt) float64
}

func (p *sprintProbe) reset(frac func(units.Watt) float64) { p.frac = frac }

func (p *sprintProbe) call(w units.Watt) float64 {
	p.tr.probes.Add(1)
	return p.frac(w)
}

func newTracedStrategy(inner strategy.Strategy, tr *tracer) *tracedStrategy {
	p := &sprintProbe{tr: tr}
	return &tracedStrategy{inner: inner, tr: tr, probe: p, count: p.call}
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Decide(in strategy.Inputs) server.Config {
	id := s.tr.begin(lDecide)
	if in.SprintFraction != nil {
		s.probe.reset(in.SprintFraction)
		in.SprintFraction = s.count
	}
	c := s.inner.Decide(in)
	s.tr.end(id)
	return c
}

func (s *tracedStrategy) Learn(fb strategy.Feedback) {
	id := s.tr.begin(lLearn)
	s.inner.Learn(fb)
	s.tr.end(id)
}

func (s *tracedStrategy) SnapshotState() (json.RawMessage, error) {
	id := s.tr.begin(lSnapshot)
	defer s.tr.end(id)
	return s.inner.SnapshotState()
}

func (s *tracedStrategy) RestoreState(raw json.RawMessage) error {
	id := s.tr.begin(lRestoreStr)
	defer s.tr.end(id)
	return s.inner.RestoreState(raw)
}

// tracedSink times each Emit of the wrapped sink.
type tracedSink struct {
	inner obs.Sink
	tr    *tracer
	l     layer
}

func (s tracedSink) Emit(ev obs.Event) error {
	id := s.tr.begin(s.l)
	err := s.inner.Emit(ev)
	s.tr.end(id)
	return err
}

// tracedStore times every call into the wrapped battery store.
type tracedStore struct {
	inner battery.Store
	tr    *tracer
}

var _ battery.Store = tracedStore{}

func (s tracedStore) Size() int {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.Size()
}

func (s tracedStore) SoC() float64 {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.SoC()
}

func (s tracedStore) MaxDoD() float64 {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.MaxDoD()
}

func (s tracedStore) MaxSustainablePower(d time.Duration) units.Watt {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.MaxSustainablePower(d)
}

func (s tracedStore) RemainingTime(p units.Watt) time.Duration {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.RemainingTime(p)
}

func (s tracedStore) Discharge(p units.Watt, d time.Duration) (time.Duration, error) {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.Discharge(p, d)
}

func (s tracedStore) Charge(p units.Watt, d time.Duration) units.WattHour {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.Charge(p, d)
}

func (s tracedStore) DegradeUnit(i int, capFactor, resistFactor float64) error {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.DegradeUnit(i, capFactor, resistFactor)
}

func (s tracedStore) Health() float64 {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.Health()
}

func (s tracedStore) UsableEnergy() units.WattHour {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.UsableEnergy()
}

func (s tracedStore) EquivalentCycles() float64 {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.EquivalentCycles()
}

func (s tracedStore) Snapshot() battery.BankSnapshot {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.Snapshot()
}

func (s tracedStore) Restore(snap battery.BankSnapshot) error {
	defer s.tr.end(s.tr.begin(lBattery))
	return s.inner.Restore(snap)
}

// tracedHandler times the API server's handling of /step and /metrics.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l := lStepHandler
		if r.URL.Path == "/metrics" {
			l = lMetricsHandler
		}
		id := tr.begin(l)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}
