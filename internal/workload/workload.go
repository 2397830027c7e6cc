// Package workload models the paper's three representative interactive
// data-center applications (Table II):
//
//	SPECjbb     10 GB memory   jops, 99th percentile ≤ 500 ms
//	Web-Search  20 GB memory   ops,  90th percentile ≤ 500 ms
//	Memcached   20 GB memory   rps,  95th percentile ≤ 10 ms
//
// Each application is described by a Profile: its QoS target, its
// measured maximal sprinting power, and three performance-model
// parameters calibrated so the knob-space behaviour matches the
// paper's observations:
//
//   - FreqExponent ψ: per-core service rate scales as (f/fmax)^ψ.
//     ψ>1 (Web-Search) means frequency cuts hurt superlinearly, so
//     core-count scaling (Parallel) is competitive; ψ<1 (Memcached)
//     means the app is less compute-bound and tolerates slower clocks.
//   - OversubPenalty: the workload keeps MaxCores worth of threads, so
//     running on fewer cores pays a context-switching/oversubscription
//     tax: efficiency = 1/(1 + penalty·(threads/cores - 1)).
//   - BaseRate: per-core service rate (req/s) at the maximum sprint.
//
// Performance is always the paper's metric: QoS-constrained throughput
// from the M/M/c sojourn model in internal/queueing.
package workload

import (
	"fmt"
	"math"

	"greensprint/internal/queueing"
	"greensprint/internal/server"
	"greensprint/internal/units"
)

// Profile describes one interactive application.
type Profile struct {
	// Name is the workload's display name.
	Name string
	// MetricName is the paper's throughput unit (jops, ops, rps).
	MetricName string
	// MemoryGB is the resident footprint from Table II (descriptive).
	MemoryGB int
	// Deadline is the latency SLA in seconds.
	Deadline float64
	// Quantile is the SLA percentile (0.99 for "99%-ile").
	Quantile float64
	// PeakPower is the measured maximal sprinting power demand.
	PeakPower units.Watt
	// BaseRate is the per-core service rate at FreqMax, req/s.
	BaseRate float64
	// FreqExponent is ψ above.
	FreqExponent float64
	// OversubPenalty is the context-switch tax coefficient.
	OversubPenalty float64
	// Threads is the workload's thread count (the full core count;
	// interactive services are provisioned for the sprint).
	Threads int
}

// SPECjbb returns the SPECjbb 2013 profile.
func SPECjbb() Profile {
	return Profile{
		Name:           "SPECjbb",
		MetricName:     "jops",
		MemoryGB:       10,
		Deadline:       0.5,
		Quantile:       0.99,
		PeakPower:      155,
		BaseRate:       50,
		FreqExponent:   1.0,
		OversubPenalty: 0.35,
		Threads:        server.MaxCores,
	}
}

// WebSearch returns the CloudSuite Web-Search profile.
func WebSearch() Profile {
	return Profile{
		Name:           "Web-Search",
		MetricName:     "ops",
		MemoryGB:       20,
		Deadline:       0.5,
		Quantile:       0.90,
		PeakPower:      156,
		BaseRate:       20,
		FreqExponent:   1.26,
		OversubPenalty: 0.0,
		Threads:        server.MaxCores,
	}
}

// Memcached returns the Memcached caching-service profile.
func Memcached() Profile {
	return Profile{
		Name:           "Memcached",
		MetricName:     "rps",
		MemoryGB:       20,
		Deadline:       0.010,
		Quantile:       0.95,
		PeakPower:      146,
		BaseRate:       2000,
		FreqExponent:   0.94,
		OversubPenalty: 0.38,
		Threads:        server.MaxCores,
	}
}

// All returns the three evaluation workloads in paper order.
func All() []Profile { return []Profile{SPECjbb(), WebSearch(), Memcached()} }

// ByName finds a profile by (case-sensitive) name.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Validate reports profile configuration errors.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.Deadline <= 0:
		return fmt.Errorf("workload %s: non-positive deadline %v", p.Name, p.Deadline)
	case p.Quantile <= 0 || p.Quantile >= 1:
		return fmt.Errorf("workload %s: quantile %v outside (0,1)", p.Name, p.Quantile)
	case p.PeakPower <= server.IdlePower:
		return fmt.Errorf("workload %s: peak power %v below idle", p.Name, p.PeakPower)
	case p.BaseRate <= 0:
		return fmt.Errorf("workload %s: non-positive base rate %v", p.Name, p.BaseRate)
	case p.FreqExponent <= 0:
		return fmt.Errorf("workload %s: non-positive freq exponent %v", p.Name, p.FreqExponent)
	case p.OversubPenalty < 0:
		return fmt.Errorf("workload %s: negative oversubscription penalty %v", p.Name, p.OversubPenalty)
	case p.Threads <= 0:
		return fmt.Errorf("workload %s: non-positive thread count %d", p.Name, p.Threads)
	}
	return nil
}

// PowerModel returns the server power model calibrated to this
// workload's measured peak sprinting power.
func (p Profile) PowerModel() server.PowerModel {
	return server.NewPowerModel(p.PeakPower)
}

// coreEfficiency returns the oversubscription efficiency of running
// the workload's threads on n cores.
func (p Profile) coreEfficiency(n int) float64 {
	if n >= p.Threads {
		return 1
	}
	over := float64(p.Threads)/float64(n) - 1
	return 1 / (1 + p.OversubPenalty*over)
}

// ServiceRate returns the effective per-core service rate (req/s) at
// config c, combining frequency scaling and oversubscription loss.
func (p Profile) ServiceRate(c server.Config) float64 {
	r := float64(c.Freq) / float64(units.FreqMax)
	return p.BaseRate * math.Pow(r, p.FreqExponent) * p.coreEfficiency(c.Cores)
}

// Station returns the M/M/c station for one server at config c.
func (p Profile) Station(c server.Config) queueing.Station {
	return queueing.Station{Servers: c.Cores, ServiceRate: p.ServiceRate(c)}
}

// MaxGoodput returns the QoS-constrained throughput (req/s) of one
// server at config c — the maximum arrival rate whose SLA-percentile
// latency meets the deadline.
func (p Profile) MaxGoodput(c server.Config) float64 {
	return p.Station(c).MaxRate(p.Deadline, p.Quantile)
}

// Goodput returns the QoS-compliant throughput at an offered per-server
// arrival rate.
func (p Profile) Goodput(c server.Config, offered float64) float64 {
	return p.Station(c).Goodput(offered, p.Deadline, p.Quantile)
}

// NormalizedPerf returns MaxGoodput(c) normalized to the Normal mode,
// the unit in which all the paper's figures report performance.
func (p Profile) NormalizedPerf(c server.Config) float64 {
	base := p.MaxGoodput(server.Normal())
	if base <= 0 {
		return 0
	}
	return p.MaxGoodput(c) / base
}

// LatencyPercentile returns the SLA-percentile latency (seconds) at an
// offered per-server rate and config; +Inf when overloaded.
func (p Profile) LatencyPercentile(c server.Config, offered float64) float64 {
	return p.Station(c).SojournPercentile(offered, p.Quantile)
}

// Utilization returns the station utilization in [0,1+) at an offered
// per-server rate.
func (p Profile) Utilization(c server.Config, offered float64) float64 {
	return p.Station(c).Utilization(offered)
}

// IntensityRate converts the paper's burst-intensity notation to an
// offered per-server arrival rate: "Int=N" is the maximal processing
// capability of the workload on N cores at 2.0 GHz (§IV-D).
func (p Profile) IntensityRate(intensity int) float64 {
	if intensity < 1 {
		return 0
	}
	return p.MaxGoodput(intensityConfig(intensity))
}

// intensityConfig is the setting "Int=N" names: N cores, at most
// server.MaxCores, at 2.0 GHz.
func intensityConfig(n int) server.Config {
	return server.Config{Cores: min(n, server.MaxCores), Freq: units.FreqMax}
}

// Power returns the wall power of one server running this workload at
// config c and offered per-server rate (utilization is the fraction of
// raw capacity in use, clamped at saturation).
func (p Profile) Power(c server.Config, offered float64) units.Watt {
	util := p.Utilization(c, offered)
	return p.PowerModel().Power(c, util)
}

// LoadPower is the paper's LoadPower_j(L,S): the power demand of the
// workload at intensity level L (offered rate) under server setting S,
// assuming the server saturates when overloaded.
func (p Profile) LoadPower(c server.Config, offered float64) units.Watt {
	return p.Power(c, offered)
}
