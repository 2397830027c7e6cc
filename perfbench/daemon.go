package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"greensprint/internal/atomicfile"
	"greensprint/internal/battery"
	"greensprint/internal/core"
	"greensprint/internal/httpapi"
	"greensprint/internal/obs"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

const (
	// daemonDays is the simulated span of one daemon_api pass.
	daemonDays = 4
	// The client scrapes /metrics every scrapeEvery-th epoch and saves a
	// controller checkpoint every ckptEvery-th epoch.
	scrapeEvery = 2
	ckptEvery   = 12
	// minSamples is the fewest unit operations (and, on daemon_api,
	// scrapes) a run measures, so a 99th percentile has ten beyond it.
	minSamples = 1000
)

// telemetryBodies precomputes one POST /step body per epoch: the
// epoch's mean green supply and jittered diurnal offered rate, with the
// goodput, latency and draw a Normal-mode server would measure at that
// rate.
func telemetryBodies(in *inputs) ([][]byte, error) {
	k := workload.NewKernel(in.p)
	normal := server.Normal()
	bodies := make([][]byte, in.days*dayEpochs)
	for i := range bodies {
		at := inputStart.Add(time.Duration(i) * sim.DefaultEpoch)
		offered := windowMean(in.offered.Window(at, sim.DefaultEpoch))
		b, err := json.Marshal(core.Telemetry{
			GreenPower:  units.Watt(windowMean(in.supply.Window(at, sim.DefaultEpoch))),
			OfferedRate: offered,
			Goodput:     k.Goodput(normal, offered),
			Latency:     k.EffectiveLatency(normal, offered),
			ServerPower: k.LoadPower(normal, offered),
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

func windowMean(w []float64) float64 {
	var s float64
	for _, v := range w {
		s += v
	}
	return s / float64(len(w))
}

// daemonStats collects the scrape and checkpoint samples across passes.
type daemonStats struct {
	scrape     []time.Duration
	promBytes  []float64
	ckptBytes  []float64
	eventBytes int64
}

// daemonAPI serves a Hybrid core.Controller through httpapi on a
// loopback server and drives it with one closed-loop client over one
// connection: a POST /step per simulated epoch, a GET /metrics every
// 2nd epoch and the daemon's checkpoint save every 12th. The unit
// operation is one /step round trip.
func daemonAPI(e env, dir string) (*outcome, error) {
	in, err := makeInputs(e.seed, daemonDays)
	if err != nil {
		return nil, err
	}
	bodies, err := telemetryBodies(in)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for i := 0; i < setupReps; i++ {
		if _, err := newDaemon(in, nil, out); err != nil {
			return nil, err
		}
	}
	var (
		tr       *tracer
		untraced []time.Duration
		sum      summary
		st       daemonStats
	)
	path := filepath.Join(dir, "controller.ckpt")
	if e.traced {
		tr = newTracer()
	}
	start := time.Now()
	for n := 0; !deadline(start, e.seconds, n, 2) || len(out.ops) < minSamples || len(st.scrape) < minSamples; n++ {
		if tr != nil {
			twin := &outcome{}
			digest, err := daemonPass(in, bodies, nil, twin, path, &daemonStats{})
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, out.absorb(twin)...)
			out.matches(digest, "untraced twin decisions")
			tr.reset()
		}
		digest, err := daemonPass(in, bodies, tr, out, path, &st)
		if err != nil {
			return nil, err
		}
		out.matches(digest, fmt.Sprintf("pass %d decisions", n))
		if tr != nil {
			sum.merge(tr.summarize())
		}
	}
	if tr == nil {
		return out, nil
	}
	m := newLayerMetrics()
	step := sum.under(lHTTPStep, lHTTPStep)
	handler := sum.under(lHTTPStep, lStepHandler)
	jsonl := sum.under(lHTTPStep, lJSONL)
	bat := sum.under(lHTTPStep, lBattery)
	set(m, "http.step.p99_ms", millis(percentile(out.ops, 99)))
	set(m, "httpapi.step.handler_us", perCall(handler))
	set(m, "http.step.transport_us", micros(step.total-handler.total)/float64(step.calls))
	set(m, "obs.collector.emit_us", perCall(sum.under(lHTTPStep, lCollector)))
	set(m, "obs.jsonl.emit_us", perCall(jsonl))
	if jsonl.calls > 0 {
		set(m, "obs.jsonl.bytes_per_event", float64(st.eventBytes)/float64(jsonl.calls))
	}
	set(m, "battery.calls_per_step", float64(bat.calls)/float64(step.calls))
	set(m, "battery.us_per_step", micros(bat.self)/float64(step.calls))
	set(m, "httpapi.metrics.handler_us", perCall(sum.under(lHTTPScrape, lMetricsHandler)))
	set(m, "obs.prometheus.bytes", meanOf(st.promBytes))
	set(m, "http.scrape.p50_ms", millis(median(st.scrape)))
	set(m, "http.scrape.p99_ms", millis(percentile(st.scrape, 99)))
	build := sum.under(lCoreCkpt, lCoreBuild)
	if build.calls > 0 {
		// Inclusive: the Q-table and bank snapshots happen inside it.
		set(m, "core.checkpoint.build_ms", millis(build.total)/float64(build.calls))
	}
	set(m, "core.checkpoint.marshal_ms", perCall(sum.under(lCoreCkpt, lCoreMarshal))/1000)
	set(m, "core.checkpoint.bytes", meanOf(st.ckptBytes))
	set(m, "atomicfile.write_ms", perCall(sum.under(lCoreCkpt, lAtomicWrite))/1000)
	overhead(m, out.passes, untraced)
	var loopWall time.Duration
	for _, p := range out.passes {
		loopWall += p
	}
	accounting(out, m, &sum, loopWall, true)
	out.layers = m
	return out, tr.dump(filepath.Join(e.workdir, "trace-"+wDaemon+".jsonl"))
}

// daemon is one controller stack behind the HTTP API, wired as
// greensprintd wires it: a Prometheus collector and a JSONL event log
// on the controller's sink.
type daemon struct {
	ctrl   *core.Controller
	api    *httpapi.Server
	events *streamHash // counts the event log's bytes
}

// newDaemon builds the stack; core.New and httpapi.New count as set-up.
// Like newEngine it starts from a collected heap.
func newDaemon(in *inputs, tr *tracer, out *outcome) (*daemon, error) {
	runtime.GC()
	collector := obs.NewCollector()
	events := &streamHash{}
	sink := obs.Multi(collector, obs.NewJSONL(events))
	var bank battery.Store
	if tr != nil {
		b, err := in.green.NewBank()
		if err != nil {
			return nil, err
		}
		bank = tracedStore{b, tr}
		sink = obs.Multi(tracedSink{collector, tr, lCollector}, tracedSink{obs.NewJSONL(events), tr, lJSONL})
	}
	t0 := time.Now()
	ctrl, err := core.New(core.Options{
		Workload:     in.p,
		Green:        in.green,
		StrategyName: "Hybrid",
		Bank:         bank,
		Sink:         sink,
	})
	if err != nil {
		return nil, err
	}
	api := httpapi.New(ctrl, httpapi.WithMetrics(collector))
	out.setup = append(out.setup, time.Since(t0))
	return &daemon{ctrl, api, events}, nil
}

// daemonPass runs one client session against a fresh controller and
// returns the digest of its decision sequence.
func daemonPass(in *inputs, bodies [][]byte, tr *tracer, out *outcome, path string, st *daemonStats) (string, error) {
	d, err := newDaemon(in, tr, out)
	if err != nil {
		return "", err
	}
	var h http.Handler = d.api
	if tr != nil {
		h = tracedHandler(d.api, tr)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	stepURL, metricsURL := srv.URL+"/step", srv.URL+"/metrics"

	decisions := make([][]byte, 0, len(bodies))
	start := time.Now()
	for i, body := range bodies {
		t0 := time.Now()
		id := tr.begin(lHTTPStep)
		resp, err := roundTrip(client, http.MethodPost, stepURL, body)
		tr.end(id)
		out.ops = append(out.ops, time.Since(t0))
		out.attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		decisions = append(decisions, resp)

		if i%scrapeEvery == scrapeEvery-1 {
			t0 := time.Now()
			id := tr.begin(lHTTPScrape)
			resp, err := roundTrip(client, http.MethodGet, metricsURL, nil)
			tr.end(id)
			st.scrape = append(st.scrape, time.Since(t0))
			st.promBytes = append(st.promBytes, float64(len(resp)))
			out.attempted++
			if err != nil {
				out.fail(err)
			}
		}
		if i%ckptEvery == ckptEvery-1 {
			id := tr.begin(lCoreCkpt)
			n, err := saveCheckpoint(d.ctrl, path, tr)
			tr.end(id)
			st.ckptBytes = append(st.ckptBytes, float64(n))
			out.attempted++
			if err != nil {
				out.fail(err)
			}
		}
	}
	out.passes = append(out.passes, time.Since(start))
	st.eventBytes += d.events.n
	out.check(len(decisions) == len(bodies), fmt.Sprintf("%d decisions for %d steps", len(decisions), len(bodies)))
	return decisionDigest(decisions)
}

// roundTrip sends one request and reads the whole response; anything
// but 200 is an error.
func roundTrip(c *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// saveCheckpoint is greensprintd's checkpoint sequence: Checkpoint,
// json.Marshal, atomicfile.WriteFile. It returns the bytes written.
func saveCheckpoint(ctrl *core.Controller, path string, tr *tracer) (int, error) {
	id := tr.begin(lCoreBuild)
	cp, err := ctrl.Checkpoint()
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin(lCoreMarshal)
	b, err := json.Marshal(cp)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin(lAtomicWrite)
	err = atomicfile.WriteFile(path, b, 0o644)
	tr.end(id)
	return len(b), err
}

// decisionDigest digests the decision sequence. Each response is
// decoded and re-encoded compactly, so the digest pins the decisions,
// not the API's JSON layout.
func decisionDigest(responses [][]byte) (string, error) {
	h := sha256.New()
	for _, r := range responses {
		var d core.Decision
		if err := json.Unmarshal(r, &d); err != nil {
			return "", fmt.Errorf("decode decision: %w", err)
		}
		b, err := json.Marshal(d)
		if err != nil {
			return "", err
		}
		h.Write(append(b, '\n'))
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}
