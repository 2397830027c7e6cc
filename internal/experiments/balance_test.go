package experiments

import (
	"math"
	"testing"
	"testing/quick"

	"greensprint/internal/server"
	"greensprint/internal/workload"
)

func TestSplitProportional(t *testing.T) {
	shares := split([]float64{100, 200, 100}, 200)
	want := []float64{50, 100, 50}
	for i := range want {
		if math.Abs(shares[i]-want[i]) > 1e-9 {
			t.Errorf("share %d = %v, want %v", i, shares[i], want[i])
		}
	}
}

func TestSplitCapsAtCapacity(t *testing.T) {
	shares := split([]float64{100, 200}, 1000)
	if shares[0] != 100 || shares[1] != 200 {
		t.Errorf("overload shares = %v", shares)
	}
}

func TestSplitEdges(t *testing.T) {
	if got := split(nil, 100); len(got) != 0 {
		t.Error("nil servers")
	}
	got := split([]float64{0, 0}, 100)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("zero-capacity shares = %v", got)
	}
	got = split([]float64{100}, 0)
	if got[0] != 0 {
		t.Errorf("zero total = %v", got)
	}
	// Dead server gets nothing; the rest carry the load.
	got = split([]float64{0, 100}, 50)
	if got[0] != 0 || got[1] != 50 {
		t.Errorf("mixed shares = %v", got)
	}
}

// Property: shares are non-negative, never exceed per-server capacity,
// and sum to min(total, aggregate capacity).
func TestSplitInvariantProperty(t *testing.T) {
	f := func(caps []uint16, totalRaw uint16) bool {
		maxRates := make([]float64, len(caps))
		var capSum float64
		for i, c := range caps {
			maxRates[i] = float64(c % 500)
			capSum += maxRates[i]
		}
		total := float64(totalRaw % 3000)
		shares := split(maxRates, total)
		var sum float64
		for i, s := range shares {
			if s < -1e-9 || s > maxRates[i]+1e-9 {
				return false
			}
			sum += s
		}
		want := math.Min(total, capSum)
		return math.Abs(sum-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClusterGoodput(t *testing.T) {
	p := workload.SPECjbb()
	// The paper's burst topology: 7 grid servers at 12c@1.5GHz, 3
	// green servers at max sprint.
	configs := make([]server.Config, 0, 10)
	for i := 0; i < 7; i++ {
		configs = append(configs, server.Config{Cores: 12, Freq: 1500})
	}
	for i := 0; i < 3; i++ {
		configs = append(configs, server.MaxSprint())
	}
	total := 10 * p.IntensityRate(12)
	sum, assigns, err := clusterGoodput(p, configs, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(assigns) != 10 {
		t.Fatalf("assignments = %d", len(assigns))
	}
	// Green servers carry more than grid servers (higher capacity).
	if assigns[9].Offered <= assigns[0].Offered {
		t.Errorf("green share %v should exceed grid share %v", assigns[9].Offered, assigns[0].Offered)
	}
	var check float64
	for _, a := range assigns {
		check += a.Goodput
	}
	if math.Abs(check-sum) > 1e-6 {
		t.Errorf("sum mismatch: %v vs %v", check, sum)
	}
	// Errors.
	if _, _, err := clusterGoodput(workload.Profile{}, configs, total); err == nil {
		t.Error("invalid profile should fail")
	}
	if _, _, err := clusterGoodput(p, configs, -1); err == nil {
		t.Error("negative rate should fail")
	}
	if _, _, err := clusterGoodput(p, []server.Config{{Cores: 1, Freq: 1}}, 10); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestNormalizedClusterPerf(t *testing.T) {
	p := workload.SPECjbb()
	// All-Normal cluster is the baseline: 1.0 by construction.
	normals := make([]server.Config, 10)
	for i := range normals {
		normals[i] = server.Normal()
	}
	total := 10 * p.IntensityRate(12)
	if got, err := normalizedClusterPerf(p, normals, total); err != nil || math.Abs(got-1) > 1e-9 {
		t.Errorf("all-Normal perf = %v, %v", got, err)
	}
	// The paper's mixed burst topology lands between 1x and the
	// green servers' 4.8x.
	configs := make([]server.Config, 0, 10)
	for i := 0; i < 7; i++ {
		configs = append(configs, server.Config{Cores: 12, Freq: 1500})
	}
	for i := 0; i < 3; i++ {
		configs = append(configs, server.MaxSprint())
	}
	got, err := normalizedClusterPerf(p, configs, total)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 2 || got >= 4.8 {
		t.Errorf("mixed cluster perf = %v, want between grid-only and full sprint", got)
	}
	// An all-max-sprint cluster reaches the headline gain.
	maxed := make([]server.Config, 10)
	for i := range maxed {
		maxed[i] = server.MaxSprint()
	}
	got, err = normalizedClusterPerf(p, maxed, total)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-p.NormalizedPerf(server.MaxSprint()))/got > 0.02 {
		t.Errorf("all-sprint cluster perf = %v, want ~%v", got, p.NormalizedPerf(server.MaxSprint()))
	}
}
