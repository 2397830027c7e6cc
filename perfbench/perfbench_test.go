package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The probes must be transparent: a traced pass produces the same event
// stream, decisions and checkpoint bytes as an untraced one.

func TestTracedDiurnalMatchesUntraced(t *testing.T) {
	in, err := makeInputs(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	var digests [2]string
	tr := newTracer()
	for i, tr := range []*tracer{nil, tr} {
		stream := newStreamHash()
		res, err := yearPass(in, tr, &outcome{}, stream)
		if err != nil {
			t.Fatal(err)
		}
		if digests[i], err = resultDigest(stream, res, true); err != nil {
			t.Fatal(err)
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("traced stream and Result %s, untraced %s", digests[1], digests[0])
	}
	sum := tr.summarize()
	if sum.broken {
		t.Fatal("spans do not nest")
	}
	if got := sum.under(lStepN, lDecide).calls; got != 3*dayEpochs {
		t.Fatalf("%d Decide spans, want one per epoch (%d)", got, 3*dayEpochs)
	}
	if sum.probes == 0 {
		t.Fatal("no SprintFraction probes counted")
	}
}

func TestTracedResumeMatchesUntraced(t *testing.T) {
	in, err := makeInputs(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := in.lightChaos()
	if err != nil {
		t.Fatal(err)
	}
	want, err := uninterrupted(in, sched)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var ckpts [2][]byte
	for i, tr := range []*tracer{nil, newTracer()} {
		out := &outcome{digest: want}
		path := filepath.Join(dir, "sim.ckpt")
		if _, err := resumePass(in, sched, tr, out, path, &resumeStats{}); err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("traced=%v: %d failed operations or checks", tr != nil, out.failed)
		}
		if ckpts[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatal("traced and untraced final checkpoints differ")
	}
}

func TestTracedDaemonMatchesUntraced(t *testing.T) {
	in, err := makeInputs(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := telemetryBodies(in)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var digests [2]string
	var ckpts [2][]byte
	for i, tr := range []*tracer{nil, newTracer()} {
		out := &outcome{}
		path := filepath.Join(dir, "controller.ckpt")
		if digests[i], err = daemonPass(in, bodies, tr, out, path, &daemonStats{}); err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("traced=%v: %d failed operations or checks", tr != nil, out.failed)
		}
		if ckpts[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			sum := tr.summarize()
			if sum.broken {
				t.Fatal("spans do not nest")
			}
			if got := sum.under(lHTTPStep, lStepHandler).calls; got != int64(len(bodies)) {
				t.Fatalf("%d /step handler spans for %d requests", got, len(bodies))
			}
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("traced decisions %s, untraced %s", digests[1], digests[0])
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatal("traced and untraced controller checkpoints differ")
	}
}

// TestSelfTimes checks the self-time arithmetic the accounting check
// rests on: each child is subtracted from its parent once, so the self
// times of a tree add up to its root.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{layer: lStepN, parent: -1, start: 0, end: 100},
		{layer: lDecide, parent: 0, start: 10, end: 40},
		{layer: lLearn, parent: 1, start: 20, end: 30},
		{layer: lJSONL, parent: 0, start: 50, end: 60},
	}}
	sum := tr.summarize()
	if got := sum.under(lStepN, lStepN).self; got != 60 {
		t.Fatalf("root self %d, want 60", got)
	}
	if got := sum.under(lStepN, lDecide).self; got != 20 {
		t.Fatalf("decide self %d, want 20", got)
	}
	if sum.self != 100 {
		t.Fatalf("self times add up to %d, want the root's 100", sum.self)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
	if got := percentile(v, 100); got != 4 {
		t.Fatalf("p100 %v, want 4", got)
	}
	if got := meanOf(v); got != 2.5 {
		t.Fatalf("mean %v, want 2.5", got)
	}
}
