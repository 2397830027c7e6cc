package core

import (
	"testing"

	"greensprint/internal/cluster"
	"greensprint/internal/workload"
)

// BenchmarkControllerStep measures one control-loop epoch of a Hybrid
// controller on the paper's RE-Batt rack under a sunny burst: chaos
// off, no sink, no host knob. Run it with -benchmem; the allocations
// it reports are the per-epoch garbage of the decision path.
func BenchmarkControllerStep(b *testing.B) {
	c, err := New(Options{Workload: workload.SPECjbb(), Green: cluster.REBatt(), StrategyName: "Hybrid"})
	if err != nil {
		b.Fatal(err)
	}
	tel := burstTelemetry(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(tel); err != nil {
			b.Fatal(err)
		}
	}
}
