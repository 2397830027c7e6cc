package obs

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"greensprint/internal/metrics"
)

// The catalog's families, in exposition order: the counter and gauge
// families, then the two histograms.
const (
	fEpochs = iota
	fSprintEpochs
	fDecisions
	fCases
	fQoS
	fGreenSupply
	fSoC
	fDoD
	fCycles
	fStress
	fSprintFrac
	fGoodput
	fClassAlive
	fClassGoodput
	fClassEnergy
	fEnergy
	fSplit
	fLatQuantile
	nValued      // the number of counter and gauge families
	fLatency     = nValued
	fGoodputHist = nValued + 1
)

// families is the catalog's fixed table, indexed by the family
// constants: each family's name, help text and Prometheus type.
var families = [...]struct{ name, help, typ string }{
	fEpochs:       {"greensprint_epochs_total", "Scheduling epochs processed.", "counter"},
	fSprintEpochs: {"greensprint_sprint_epochs_total", "Epochs whose applied config exceeded Normal mode.", "counter"},
	fDecisions:    {"greensprint_decisions_total", "Decisions by strategy and applied server config.", "counter"},
	fCases:        {"greensprint_supply_case_total", "Epochs by PSS supply case (green-only, green+battery, ...).", "counter"},
	fQoS:          {"greensprint_qos_violations_total", "Epochs whose SLA-percentile latency exceeded the deadline.", "counter"},
	fGreenSupply:  {"greensprint_green_supply_watts", "Renewable production observed over the last epoch (rack level).", "gauge"},
	fSoC:          {"greensprint_battery_soc", "Battery bank mean state of charge (0-1).", "gauge"},
	fDoD:          {"greensprint_battery_dod", "Battery bank mean depth of discharge (1 - SoC).", "gauge"},
	fCycles:       {"greensprint_battery_cycles", "Equivalent battery cycles consumed since start.", "gauge"},
	fStress:       {"greensprint_breaker_stress", "PDU breaker thermal stress (0-1; 1 trips).", "gauge"},
	fSprintFrac:   {"greensprint_sprint_fraction", "Fraction of the last epoch the sprint was powered.", "gauge"},
	fGoodput:      {"greensprint_goodput_rps", "Per-server QoS-compliant throughput over the last epoch.", "gauge"},
	fClassAlive:   {"greensprint_class_alive_servers", "Alive servers per fleet class (fleet-scale runs only).", "gauge"},
	fClassGoodput: {"greensprint_class_goodput_rps", "Aggregate QoS-compliant throughput per fleet class.", "gauge"},
	fClassEnergy:  {"greensprint_class_energy_wh", "Cumulative server energy per fleet class (Wh).", "gauge"},
	fEnergy:       {"greensprint_energy_wh_total", "Rack-level energy delivered, by power source.", "counter"},
	fSplit:        {"greensprint_power_split_watts", "Per-server power delivered in the last epoch, by source.", "gauge"},
	fLatQuantile:  {"greensprint_epoch_latency_quantile_seconds", "SLA-percentile epoch latency quantiles.", "gauge"},
	fLatency:      {"greensprint_epoch_latency_seconds", "Per-epoch SLA-percentile latency.", "histogram"},
	fGoodputHist:  {"greensprint_epoch_goodput", "Per-epoch per-server QoS-compliant throughput (requests/s).", "histogram"},
}

// heads holds each family's HELP and TYPE lines, rendered once.
var heads = func() (h [len(families)]string) {
	for f, fam := range families {
		h[f] = "# HELP " + fam.name + " " + fam.help + "\n# TYPE " + fam.name + " " + fam.typ + "\n"
	}
	return h
}()

// The closed label spaces' rendered label sets.
const (
	sourceGreen   = `{source="green"}`
	sourceBattery = `{source="battery"}`
	sourceGrid    = `{source="grid"}`
)

// DefaultLatencyBounds is the le ladder for epoch-latency export,
// covering the three workloads' SLA range (milliseconds to tens of
// seconds).
var DefaultLatencyBounds = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

// DefaultGoodputBounds is the le ladder for epoch-goodput export
// (requests/s): decade steps with 2.5/5 subdivisions from background
// trickle to a saturated Int=12 sprint.
var DefaultGoodputBounds = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
	25000, 50000, 100000, 250000, 500000, 1000000,
}

// histogram is an exported metrics.Histogram with each le bound's
// bucket cut-off and rendered `_bucket{le="…"}` suffix, resolved once.
type histogram struct {
	*metrics.Histogram
	cuts []int
	les  []string
}

func newHistogram(h *metrics.Histogram, bounds []float64) histogram {
	les := make([]string, len(bounds))
	for k, d := range bounds {
		les[k] = `_bucket{le="` + strconv.FormatFloat(d, 'g', -1, 64) + `"}`
	}
	return histogram{Histogram: h, cuts: h.Cuts(bounds), les: les}
}

// labelKey names one label set of an open label space: a label and
// its value, plus the strategy for a decision's config.
type labelKey struct{ label, value, strategy string }

// Collector turns the per-epoch event stream into the /metrics
// catalog and renders it in the Prometheus text exposition format.
// It implements Sink, so it composes with a JSONL event log through
// Multi. One mutex guards the whole catalog, so a scrape sees whole
// epochs. Safe for concurrent use.
type Collector struct {
	mu sync.Mutex
	// vals holds each counter and gauge family's values, keyed by
	// rendered label set ("" for none); keys lists those label sets
	// sorted, the exposition order. A series exists from its first
	// write on.
	vals [nValued]map[string]*float64
	keys [nValued][]string
	// labels memoizes the rendered label sets of the open label spaces
	// (strategy×config, supply case, fleet class), which recur.
	labels  map[labelKey]string
	lat, gp histogram
	size    int // the last scrape's length, the next one's capacity
}

// NewCollector builds a Collector with the full GreenSprint metric
// catalog (see DESIGN.md §8 and the README's observability section).
func NewCollector() *Collector {
	c := &Collector{
		labels: map[labelKey]string{},
		lat:    newHistogram(metrics.DefaultLatencyHistogram(), DefaultLatencyBounds),
		gp:     newHistogram(metrics.DefaultGoodputHistogram(), DefaultGoodputBounds),
	}
	for f := range c.vals {
		c.vals[f] = map[string]*float64{}
	}
	return c
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) error {
	c.Observe(ev)
	return nil
}

// Observe folds one epoch event into the metric catalog. Chaos
// fault/recovery transitions are stream annotations, not epochs: they
// carry no decision, split or latency, so folding them in would
// inflate greensprint_epochs_total and mint zero-config decision
// label series.
func (c *Collector) Observe(ev Event) {
	if ev.Chaos != "" {
		return
	}
	n := max(float64(ev.Servers), 1)
	hours := ev.EpochSeconds / 3600

	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(fEpochs, "", 1)
	if ev.Sprinting {
		c.add(fSprintEpochs, "", 1)
	}
	c.add(fDecisions, c.label(labelKey{"config", ev.Config, ev.Strategy}), 1)
	c.add(fCases, c.label(labelKey{label: "case", value: ev.Case}), 1)
	if ev.QoSViolation {
		c.add(fQoS, "", 1)
	}
	c.add(fEnergy, sourceGreen, ev.GreenW*n*hours)
	c.add(fEnergy, sourceBattery, ev.BatteryW*n*hours)
	c.add(fEnergy, sourceGrid, ev.GridW*n*hours)

	*c.series(fGreenSupply, "") = ev.GreenSupplyW
	*c.series(fSplit, sourceGreen) = ev.GreenW
	*c.series(fSplit, sourceBattery) = ev.BatteryW
	*c.series(fSplit, sourceGrid) = ev.GridW
	*c.series(fSoC, "") = ev.SoC
	*c.series(fDoD, "") = 1 - ev.SoC
	*c.series(fCycles, "") = ev.BatteryCycles
	*c.series(fStress, "") = ev.BreakerStress
	*c.series(fSprintFrac, "") = ev.SprintFraction
	*c.series(fGoodput, "") = ev.Goodput

	// Per-class gauges: ev.Classes may be the emitter's reused
	// buffer, so its values are consumed here and not retained.
	for _, cs := range ev.Classes {
		l := c.label(labelKey{label: "class", value: cs.Name})
		*c.series(fClassAlive, l) = float64(cs.Alive)
		*c.series(fClassGoodput, l) = cs.Goodput
		*c.series(fClassEnergy, l) = cs.EnergyWh
	}

	c.lat.Observe(ev.LatencySec)
	c.gp.Observe(ev.Goodput)
}

// add adds v to one counter series. A negative or NaN delta is
// skipped, as a counter must, and creates no series.
// c.mu must be held.
func (c *Collector) add(f int, labels string, v float64) {
	if v >= 0 {
		*c.series(f, labels) += v
	}
}

// series returns one series' value, entering a new label set into its
// family's sorted key list. c.mu must be held.
func (c *Collector) series(f int, labels string) *float64 {
	v, ok := c.vals[f][labels]
	if !ok {
		v = new(float64)
		c.vals[f][labels] = v
		i, _ := slices.BinarySearch(c.keys[f], labels)
		c.keys[f] = slices.Insert(c.keys[f], i, labels)
	}
	return v
}

// label returns the memoized `{k="v",…}` rendering of one open label
// set, its labels in name order and its values escaped.
// c.mu must be held.
func (c *Collector) label(k labelKey) string {
	l, ok := c.labels[k]
	if !ok {
		l = "{" + k.label + `="` + labelEscaper.Replace(k.value) + `"`
		if k.label == "config" {
			l += `,strategy="` + labelEscaper.Replace(k.strategy) + `"`
		}
		l += "}"
		c.labels[k] = l
	}
	return l
}

// labelEscaper escapes a label value for the text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// WritePrometheus renders the catalog in the Prometheus text format:
// the whole exposition is appended to one buffer under c.mu and
// written once.
func (c *Collector) WritePrometheus(w io.Writer) error {
	c.mu.Lock()
	*c.series(fLatQuantile, `{quantile="0.5"}`) = c.lat.Quantile(0.5)
	*c.series(fLatQuantile, `{quantile="0.9"}`) = c.lat.Quantile(0.9)
	*c.series(fLatQuantile, `{quantile="0.99"}`) = c.lat.Quantile(0.99)
	b := make([]byte, 0, c.size)
	for f := range nValued {
		b = append(b, heads[f]...)
		for _, k := range c.keys[f] {
			b = appendSample(b, families[f].name, k, *c.vals[f][k])
		}
	}
	b = appendHistogram(b, fLatency, c.lat)
	b = appendHistogram(b, fGoodputHist, c.gp)
	c.size = len(b)
	c.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// appendHistogram appends histogram family f from one read of h, so
// the +Inf bucket always equals _count.
func appendHistogram(b []byte, f int, h histogram) []byte {
	var buf [32]uint64
	cum, total, sum := h.Cumulative(buf[:0], h.cuts)
	name := families[f].name
	b = append(b, heads[f]...)
	for k, le := range h.les {
		b = appendCount(b, name, le, cum[k])
	}
	b = appendCount(b, name, `_bucket{le="+Inf"}`, total)
	b = appendSample(b, name, "_sum", sum)
	return appendCount(b, name, "_count", total)
}

// appendSample appends the sample line `<name><suffix> <v>`.
func appendSample(b []byte, name, suffix string, v float64) []byte {
	b = append(append(append(b, name...), suffix...), ' ')
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// appendCount appends the sample line `<name><suffix> <n>`.
func appendCount(b []byte, name, suffix string, n uint64) []byte {
	b = append(append(append(b, name...), suffix...), ' ')
	return append(strconv.AppendUint(b, n, 10), '\n')
}
