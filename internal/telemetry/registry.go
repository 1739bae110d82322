package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Label is one metric dimension.
type Label struct{ Key, Value string }

// labelString pre-renders labels in Prometheus form ({k="v",...}) so the
// hot path never formats strings.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Counter is a monotonically increasing count.
type Counter struct {
	name   string
	labels string
	n      uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.n += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is a point-in-time value.
type Gauge struct {
	name   string
	labels string
	v      float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// namedHist is a registered duration histogram.
type namedHist struct {
	name   string
	labels string
	h      *Histogram
}

// namedLinear is a registered ratio histogram.
type namedLinear struct {
	name   string
	labels string
	h      *LinearHistogram
}

// Registry owns named counters, gauges, and histograms, and renders them
// in Prometheus text exposition format. It performs no locking: the
// Recorder serializes access (the simulation itself is single-threaded).
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*namedHist
	linears  []*namedLinear
	index    map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]any{}}
}

func key(name, labels string) string { return name + labels }

// Counter returns the counter with the given name and labels, creating
// it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	ls := labelString(labels)
	if c, ok := r.index[key(name, ls)].(*Counter); ok {
		return c
	}
	c := &Counter{name: name, labels: ls}
	r.counters = append(r.counters, c)
	r.index[key(name, ls)] = c
	return c
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	ls := labelString(labels)
	if g, ok := r.index[key(name, ls)].(*Gauge); ok {
		return g
	}
	g := &Gauge{name: name, labels: ls}
	r.gauges = append(r.gauges, g)
	r.index[key(name, ls)] = g
	return g
}

// Histogram returns the duration histogram with the given name and
// labels, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	ls := labelString(labels)
	if h, ok := r.index[key(name, ls)].(*namedHist); ok {
		return h.h
	}
	h := &namedHist{name: name, labels: ls, h: &Histogram{}}
	r.hists = append(r.hists, h)
	r.index[key(name, ls)] = h
	return h.h
}

// Linear returns the ratio histogram with the given name and labels over
// [lo, hi] with n buckets, creating it on first use.
func (r *Registry) Linear(name string, lo, hi float64, n int, labels ...Label) *LinearHistogram {
	ls := labelString(labels)
	if h, ok := r.index[key(name, ls)].(*namedLinear); ok {
		return h.h
	}
	h := &namedLinear{name: name, labels: ls, h: NewLinearHistogram(lo, hi, n)}
	r.linears = append(r.linears, h)
	r.index[key(name, ls)] = h
	return h.h
}

// quantileLabels splices a le/quantile label into a pre-rendered label
// string.
func spliceLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Values renders every counter and gauge as a name+labels → value map —
// the JSON-friendly view the rmserved /v1/stats endpoint embeds.
// Histograms are summarized to their _count; callers needing quantiles
// use the Prometheus exposition.
func (r *Registry) Values() map[string]float64 {
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.linears))
	for _, c := range r.counters {
		out[c.name+c.labels] = float64(c.n)
	}
	for _, g := range r.gauges {
		out[g.name+g.labels] = g.v
	}
	for _, h := range r.hists {
		out[h.name+h.labels+"_count"] = float64(h.h.Count())
	}
	for _, h := range r.linears {
		out[h.name+h.labels+"_count"] = float64(h.h.Count())
	}
	return out
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (durations in seconds, per convention). Metric families are
// sorted by name+labels for deterministic output; histogram buckets stay
// in increasing-le order as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var blocks []string
	for _, c := range r.counters {
		blocks = append(blocks, fmt.Sprintf("%s%s %d\n", c.name, c.labels, c.n))
	}
	for _, g := range r.gauges {
		blocks = append(blocks, fmt.Sprintf("%s%s %g\n", g.name, g.labels, g.v))
	}
	for _, h := range r.hists {
		var b strings.Builder
		var cum uint64
		for _, bk := range h.h.Buckets() {
			cum += bk.Count
			le := fmt.Sprintf("le=%q", fmt.Sprintf("%g", bk.Hi/float64(sim.Second)))
			fmt.Fprintf(&b, "%s_bucket%s %d\n", h.name, spliceLabel(h.labels, le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", h.name, spliceLabel(h.labels, `le="+Inf"`), h.h.Count())
		fmt.Fprintf(&b, "%s_sum%s %g\n", h.name, h.labels, h.h.Sum().Seconds())
		fmt.Fprintf(&b, "%s_count%s %d\n", h.name, h.labels, h.h.Count())
		blocks = append(blocks, b.String())
	}
	for _, h := range r.linears {
		var b strings.Builder
		var cum uint64
		for _, bk := range h.h.Buckets() {
			cum += bk.Count
			le := fmt.Sprintf("le=%q", fmt.Sprintf("%g", bk.Hi))
			fmt.Fprintf(&b, "%s_bucket%s %d\n", h.name, spliceLabel(h.labels, le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", h.name, spliceLabel(h.labels, `le="+Inf"`), h.h.Count())
		fmt.Fprintf(&b, "%s_sum%s %g\n", h.name, h.labels, h.h.sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", h.name, h.labels, h.h.Count())
		blocks = append(blocks, b.String())
	}
	sort.Strings(blocks)
	for _, bl := range blocks {
		if _, err := io.WriteString(w, bl); err != nil {
			return err
		}
	}
	return nil
}
