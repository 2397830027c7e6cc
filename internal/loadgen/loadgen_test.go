package loadgen

import (
	"math"
	"testing"
	"time"

	"greensprint/internal/core"
	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

const epoch = 5 * time.Minute

func TestNewValidates(t *testing.T) {
	if _, err := New(workload.Profile{}, 1); err == nil {
		t.Error("invalid profile should fail")
	}
	if _, err := New(workload.SPECjbb(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	g, _ := New(workload.SPECjbb(), 1)
	if _, err := g.Run(server.Config{Cores: 1, Freq: 1200}, 100, epoch); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := g.Run(server.Normal(), -1, epoch); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := g.Run(server.Normal(), 100, 0); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestRunIdle(t *testing.T) {
	g, _ := New(workload.SPECjbb(), 1)
	e, err := g.Run(server.Normal(), 0, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if e.Goodput() != 0 || len(e.Latencies) != 0 || e.Shed != 0 {
		t.Errorf("idle epoch = %+v", e)
	}
}

func TestRunUnderload(t *testing.T) {
	p := workload.SPECjbb()
	g, _ := New(p, 1)
	offered := 0.5 * p.MaxGoodput(server.MaxSprint())
	e, err := g.Run(server.MaxSprint(), offered, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shed != 0 {
		t.Errorf("underload shed = %v", e.Shed)
	}
	// Nearly everything meets the SLA.
	if ratio := float64(e.Window.Compliant) / float64(e.Window.Completed); ratio < 0.99 {
		t.Errorf("compliance = %v", ratio)
	}
	// Goodput ≈ offered.
	if math.Abs(e.Goodput()-offered)/offered > 0.02 {
		t.Errorf("goodput = %v, offered %v", e.Goodput(), offered)
	}
	if len(e.Latencies) == 0 {
		t.Fatal("no latency samples")
	}
}

func TestRunOverloadSheds(t *testing.T) {
	p := workload.SPECjbb()
	g, _ := New(p, 1)
	offered := p.IntensityRate(12) // saturates Normal mode by far
	e, err := g.Run(server.Normal(), offered, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shed <= 0 {
		t.Error("overload should shed")
	}
	// Goodput is far below offered but positive.
	if e.Goodput() <= 0 || e.Goodput() >= offered/2 {
		t.Errorf("overload goodput = %v of %v", e.Goodput(), offered)
	}
}

// TestGoodputMatchesAnalyticModel ties the request-level generator
// back to the analytic QoS-constrained throughput the figures use: at
// the QoS-max rate the generator's measured goodput is close to the
// analytic MaxGoodput.
func TestGoodputMatchesAnalyticModel(t *testing.T) {
	p := workload.SPECjbb()
	g, _ := New(p, 7)
	c := server.MaxSprint()
	max := p.MaxGoodput(c)
	e, err := g.Run(c, max, epoch)
	if err != nil {
		t.Fatal(err)
	}
	// At the analytic QoS-max rate, the SLA quantile of measured
	// latencies sits near the deadline...
	if lat := quantile(e.Latencies, p.Quantile); lat > p.Deadline*1.25 || lat < p.Deadline*0.5 {
		t.Errorf("p99 at MaxGoodput = %v, want near %v", lat, p.Deadline)
	}
	// ...and goodput is within 10% of offered.
	if e.Goodput() < 0.9*max {
		t.Errorf("goodput %v << analytic max %v", e.Goodput(), max)
	}
}

func TestFeedMonitor(t *testing.T) {
	p := workload.SPECjbb()
	g, _ := New(p, 3)
	mon := core.NewMonitor(p)
	offered := p.IntensityRate(12)
	e, err := g.Run(server.Normal(), offered, epoch)
	if err != nil {
		t.Fatal(err)
	}
	e.FeedMonitor(mon.RecordLatency)
	mon.RecordGreenPower(units.Watt(300))
	tel := mon.Close(epoch)
	// Overload on Normal mode: the measured SLA percentile blows
	// through the deadline because shed requests are observed as
	// violations.
	if tel.Latency <= p.Deadline {
		t.Errorf("monitored latency = %v, want > deadline", tel.Latency)
	}
	if tel.GreenPower != 300 {
		t.Errorf("green power = %v", tel.GreenPower)
	}
}

func TestEpochsDifferButAreReproducible(t *testing.T) {
	p := workload.Memcached()
	offered := 0.8 * p.MaxGoodput(server.MaxSprint())
	g1, _ := New(p, 5)
	a, err := g1.Run(server.MaxSprint(), offered, epoch)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g1.Run(server.MaxSprint(), offered, epoch)
	if a.Latencies[0] == b.Latencies[0] {
		t.Error("consecutive epochs should differ")
	}
	// Same seed, fresh generator: identical first epoch.
	g2, _ := New(p, 5)
	a2, _ := g2.Run(server.MaxSprint(), offered, epoch)
	if a.Latencies[0] != a2.Latencies[0] {
		t.Error("same seed should reproduce")
	}
}

func TestSubsamplingKeepsMemcachedCheap(t *testing.T) {
	p := workload.Memcached()
	g, _ := New(p, 1)
	offered := 0.9 * p.MaxGoodput(server.MaxSprint()) // tens of thousands of rps
	start := time.Now()
	e, err := g.Run(server.MaxSprint(), offered, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("subsampling failed: epoch too expensive")
	}
	// The full epoch's counts are scaled, not truncated.
	if e.Window.Completed < uint64(offered*epoch.Seconds()*0.99) {
		t.Errorf("completed = %d, want ~%v", e.Window.Completed, offered*epoch.Seconds())
	}
	if len(e.Latencies) > 120000 {
		t.Errorf("sampled %d latencies", len(e.Latencies))
	}
}

func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	cp := append([]float64(nil), s...)
	// insertion sort is fine for test sizes; use sort for clarity
	sortFloats(cp)
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	return cp[idx]
}

func sortFloats(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
