package workload

import (
	"math"
	"time"

	"greensprint/internal/trace"
)

// Burst describes one workload burst in the paper's notation: the peak
// offered load is the maximal processing capability of the workload on
// Intensity cores at 2.0 GHz, sustained for Duration.
type Burst struct {
	// Intensity is the paper's "Int=N" parameter (12 = saturates the
	// maximum sprint).
	Intensity int
	// Duration is the burst length (the paper evaluates 10, 15, 30
	// and 60 minutes).
	Duration time.Duration
}

// Durations returns the burst lengths evaluated in the paper.
func Durations() []time.Duration {
	return []time.Duration{10 * time.Minute, 15 * time.Minute, 30 * time.Minute, 60 * time.Minute}
}

// Rate returns the offered per-server arrival rate of the burst for
// profile p.
func (b Burst) Rate(p Profile) float64 { return p.IntensityRate(b.Intensity) }

// DiurnalPattern generates the normalized 24-hour workload-intensity
// curve of the paper's Figure 1 (a Google-datacenter diurnal pattern
// with several load spikes of varying height and width). The output is
// normalized so that the grid-power-sustainable load is 1.0; the
// spikes exceed it, which is exactly when sprinting power (the red
// ovals in Figure 1) is demanded.
func DiurnalPattern(start time.Time, step time.Duration) *trace.Trace {
	if step <= 0 {
		step = time.Minute
	}
	n := int(24 * time.Hour / step)
	samples := make([]float64, n)
	// Spikes: (center hour, half-width hours, extra height).
	spikes := []struct{ c, w, h float64 }{
		{8.5, 0.5, 0.55},  // morning news peak
		{12.5, 0.4, 0.45}, // lunch-time shopping
		{17.0, 0.3, 0.35}, // late-afternoon burst
		{20.5, 0.6, 0.65}, // evening prime time
	}
	for i := range samples {
		h := float64(i) * step.Hours()
		// Smooth diurnal base: low at night, ~0.9 during the day.
		base := 0.55 - 0.35*math.Cos(2*math.Pi*(h-3)/24)
		v := base
		for _, s := range spikes {
			d := (h - s.c) / s.w
			v += s.h * math.Exp(-d*d)
		}
		samples[i] = v
	}
	return trace.New("workload_intensity", start, step, samples)
}
