package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"greensprint/internal/metrics"
)

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Output is deterministic: families appear in
// registration order and labeled series sort lexicographically. All
// methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	order []*family
	byNme map[string]*family
}

type family struct {
	name, help, typ string
	vals            map[string]float64 // rendered label set -> value
	hist            *promHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNme: map[string]*family{}}
}

func (r *Registry) register(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byNme[name]; ok {
		return f
	}
	f := &family{name: name, help: help, typ: typ, vals: map[string]float64{}}
	r.byNme[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter is a monotonically increasing metric, optionally labeled.
type Counter struct {
	r      *Registry
	f      *family
	labels string
}

// NewCounter registers (or fetches) a counter family.
func (r *Registry) NewCounter(name, help string) *Counter {
	return &Counter{r: r, f: r.register(name, help, "counter")}
}

// With returns the counter for one label set; pairs are key, value,
// key, value…
func (c *Counter) With(pairs ...string) *Counter {
	return &Counter{r: c.r, f: c.f, labels: renderLabels(pairs)}
}

// Add increments the counter by v (negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	c.r.mu.Lock()
	c.f.vals[c.labels] += v
	c.r.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a set-to-current-value metric, optionally labeled.
type Gauge struct {
	r      *Registry
	f      *family
	labels string
}

// NewGauge registers (or fetches) a gauge family.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return &Gauge{r: r, f: r.register(name, help, "gauge")}
}

// With returns the gauge for one label set.
func (g *Gauge) With(pairs ...string) *Gauge {
	return &Gauge{r: g.r, f: g.f, labels: renderLabels(pairs)}
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	g.r.mu.Lock()
	g.f.vals[g.labels] = v
	g.r.mu.Unlock()
}

// promHistogram renders a metrics.Histogram as a Prometheus histogram
// with a fixed ladder of le bounds.
type promHistogram struct {
	h      *metrics.Histogram
	bounds []float64
}

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

// NewHistogram registers a Prometheus histogram over an existing
// metrics.Histogram. The caller keeps observing into h; bounds nil
// selects DefaultLatencyBounds.
func (r *Registry) NewHistogram(name, help string, h *metrics.Histogram, bounds []float64) {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	f := r.register(name, help, "histogram")
	r.mu.Lock()
	f.hist = &promHistogram{h: h, bounds: bounds}
	r.mu.Unlock()
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.order {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		if f.hist != nil {
			if err := f.hist.write(w, f.name); err != nil {
				return err
			}
			continue
		}
		keys := make([]string, 0, len(f.vals))
		for k := range f.vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, k, formatValue(f.vals[k])); err != nil {
				return err
			}
		}
	}
	return nil
}

// write renders the histogram from one read of it, so the +Inf bucket
// always equals _count even while observers record.
func (p *promHistogram) write(w io.Writer, name string) error {
	cum, total, sum := p.h.Cumulative(p.bounds)
	for k, b := range p.bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatValue(b), cum[k]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, total, name, formatValue(sum), name, total)
	return err
}

// renderLabels turns key/value pairs into a sorted, escaped
// `{k="v",…}` block (empty string for no labels).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		pairs = append(pairs, "")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
