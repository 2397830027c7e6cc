package workload

import (
	"math"
	"sync"

	"greensprint/internal/queueing"
	"greensprint/internal/server"
	"greensprint/internal/units"
)

// Kernel is the memoized queueing kernel for one workload profile: it
// precomputes, for every knob setting in server.Configs(), the
// quantities the per-epoch hot path re-derived from scratch — the
// effective service rate and the QoS-constrained max rate (an
// 80-iteration bisection whose every probe runs the O(cores) Erlang-C
// recurrence). With them cached, Goodput degenerates to
// min(offered, maxRate): zero bisections per scheduling epoch.
//
// Caching is exact value reuse, never interpolation: every accessor is
// bit-identical to the corresponding Profile method, which is what
// keeps the golden determinism suites (DoD sweep, Fig10a, sharded
// event streams) byte-identical. A Kernel is immutable after NewKernel
// returns and therefore safe to share across goroutines.
type Kernel struct {
	p  Profile
	pm server.PowerModel
	// rate and maxRate are dense per-config tables keyed by
	// server.Index.
	rate    []float64
	maxRate []float64
}

// NewKernel eagerly profiles p over the full knob space. An invalid
// profile yields the same degenerate values (zero max rates) the
// direct Profile methods produce.
func NewKernel(p Profile) *Kernel {
	n := server.NumConfigs()
	k := &Kernel{
		p:       p,
		pm:      p.PowerModel(),
		rate:    make([]float64, n),
		maxRate: make([]float64, n),
	}
	for i, c := range server.Configs() {
		k.rate[i] = p.ServiceRate(c)
		k.maxRate[i] = queueing.Station{Servers: c.Cores, ServiceRate: k.rate[i]}.
			MaxRate(p.Deadline, p.Quantile)
	}
	return k
}

// Profile returns the profiled workload.
func (k *Kernel) Profile() Profile { return k.p }

// Station returns the M/M/c station for one server at config c,
// reusing the cached service rate.
func (k *Kernel) Station(c server.Config) queueing.Station {
	if i := server.Index(c); i >= 0 {
		return queueing.Station{Servers: c.Cores, ServiceRate: k.rate[i]}
	}
	return k.p.Station(c)
}

// MaxGoodput returns the cached QoS-constrained throughput of one
// server at config c (Profile.MaxGoodput without the bisection).
func (k *Kernel) MaxGoodput(c server.Config) float64 {
	if i := server.Index(c); i >= 0 {
		return k.maxRate[i]
	}
	return k.p.MaxGoodput(c)
}

// Goodput returns the QoS-compliant throughput at an offered
// per-server rate: min(offered, cached max rate), exactly as
// queueing.Station.Goodput computes it.
func (k *Kernel) Goodput(c server.Config, offered float64) float64 {
	if i := server.Index(c); i >= 0 {
		return math.Min(math.Max(offered, 0), k.maxRate[i])
	}
	return k.p.Goodput(c, offered)
}

// Utilization returns the station utilization at an offered per-server
// rate.
func (k *Kernel) Utilization(c server.Config, offered float64) float64 {
	if i := server.Index(c); i >= 0 {
		return offered / (float64(c.Cores) * k.rate[i])
	}
	return k.p.Utilization(c, offered)
}

// LoadPower is the paper's LoadPower_j(L,S) from the cached service
// rates and power model.
func (k *Kernel) LoadPower(c server.Config, offered float64) units.Watt {
	return k.pm.Power(c, k.Utilization(c, offered))
}

// LatencyPercentile returns the SLA-percentile latency at an offered
// per-server rate; the underlying bisection hoists the Erlang-C
// constants once per call (queueing.TailParams).
func (k *Kernel) LatencyPercentile(c server.Config, offered float64) float64 {
	return k.Station(c).SojournPercentile(offered, k.p.Quantile)
}

// IntensityRate converts the paper's burst-intensity notation to an
// offered per-server arrival rate using the cached max rates.
func (k *Kernel) IntensityRate(intensity int) float64 {
	if intensity < 1 {
		return 0
	}
	return k.MaxGoodput(intensityConfig(intensity))
}

// EffectiveLatency returns the SLA-relevant latency of running the
// workload at config c under offered load: the SLA-percentile sojourn
// time when the load is fully served, or the deadline inflated by the
// unserved share when the setting sheds load. It is finite and
// monotone in the setting's capacity, which the learning layer needs.
// (strategy.EffectiveLatency delegates here.)
func (k *Kernel) EffectiveLatency(c server.Config, offered float64) float64 {
	if offered <= 0 {
		return k.p.Deadline / 10
	}
	good := k.Goodput(c, offered)
	if good >= offered*0.999 {
		lat := k.LatencyPercentile(c, offered)
		if !math.IsInf(lat, 1) {
			return lat
		}
	}
	return k.p.Deadline * offered / math.Max(good, offered/100)
}

// sharedKernels is the process-level kernel cache behind SharedKernel.
// Profile is a comparable value type, so identical workloads across
// sweep cells key the same entry. Kernels are immutable, so sharing
// one across goroutines is safe; only the map itself needs the lock.
var (
	sharedMu      sync.Mutex
	sharedKernels = map[Profile]*Kernel{}
)

// SharedKernel returns the process-wide memoized kernel for p,
// building it on first use.
func SharedKernel(p Profile) *Kernel {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if k, ok := sharedKernels[p]; ok {
		return k
	}
	k := NewKernel(p)
	sharedKernels[p] = k
	return k
}
