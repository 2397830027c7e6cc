package experiments

import (
	"fmt"

	"greensprint/internal/server"
	"greensprint/internal/workload"
)

// split is the cluster's load balancer. During sprints the paper's ten
// servers are heterogeneous (grid-fed machines at a sub-optimal
// setting, green ones at the PMK's choice), and split distributes a
// total offered rate across servers with the given QoS-max rates in
// proportion to capacity, which keeps every server at the same fraction
// of its own limit. Each share is capped at its server's max rate; when
// the total exceeds the cluster's aggregate capacity the excess is shed
// (the returned shares sum to the aggregate capacity). Zero-capacity
// servers receive nothing.
func split(maxRates []float64, total float64) []float64 {
	out := make([]float64, len(maxRates))
	if total <= 0 || len(maxRates) == 0 {
		return out
	}
	var capSum float64
	for _, m := range maxRates {
		if m > 0 {
			capSum += m
		}
	}
	if capSum <= 0 {
		return out
	}
	frac := total / capSum
	if frac > 1 {
		frac = 1
	}
	for i, m := range maxRates {
		if m > 0 {
			out[i] = frac * m
		}
	}
	return out
}

// assignment is one server's share of the cluster load.
type assignment struct {
	Offered float64
	Goodput float64
}

// clusterGoodput splits a cluster-wide offered rate across the given
// per-server settings and returns the aggregate QoS-compliant
// throughput plus the per-server assignments. It reads the max rates
// from the workload's shared kernel, bit-identical to the Profile
// methods without their bisections.
func clusterGoodput(p workload.Profile, configs []server.Config, total float64) (float64, []assignment, error) {
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	if total < 0 {
		return 0, nil, fmt.Errorf("experiments: negative total rate %v", total)
	}
	k := workload.SharedKernel(p)
	maxRates := make([]float64, len(configs))
	for i, c := range configs {
		if !c.Valid() {
			return 0, nil, fmt.Errorf("experiments: invalid config %v at %d", c, i)
		}
		maxRates[i] = k.MaxGoodput(c)
	}
	shares := split(maxRates, total)
	out := make([]assignment, len(configs))
	sum := 0.0
	for i, c := range configs {
		g := k.Goodput(c, shares[i])
		out[i] = assignment{Offered: shares[i], Goodput: g}
		sum += g
	}
	return sum, out, nil
}

// normalizedClusterPerf returns clusterGoodput normalized to an
// all-Normal cluster of the same size at the same offered rate — the
// paper's whole-cluster metric.
func normalizedClusterPerf(p workload.Profile, configs []server.Config, total float64) (float64, error) {
	sprint, _, err := clusterGoodput(p, configs, total)
	if err != nil {
		return 0, err
	}
	normals := make([]server.Config, len(configs))
	for i := range normals {
		normals[i] = server.Normal()
	}
	base, _, err := clusterGoodput(p, normals, total)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, nil
	}
	return sprint / base, nil
}
