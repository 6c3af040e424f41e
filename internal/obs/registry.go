package obs

import (
	"sort"

	"prism/internal/sim"
	"prism/internal/stats"
)

// Labels is the fixed label schema of every metric: the dimensions the
// paper's figures break results down by. Empty string / zero values are
// omitted from exports. A fixed struct (rather than a map) keeps lookups
// allocation-free and makes label ordering deterministic by construction.
// The per-packet path does no lookups at all: Stage handles cache the
// metric pointers (see Pipeline.Bind).
type Labels struct {
	Device   string
	Stage    string
	Shard    string
	Priority int
}

type metricKey struct {
	name   string
	labels Labels
}

// less orders keys for deterministic export: by name, then each label.
func (k metricKey) less(o metricKey) bool {
	if k.name != o.name {
		return k.name < o.name
	}
	if k.labels.Device != o.labels.Device {
		return k.labels.Device < o.labels.Device
	}
	if k.labels.Stage != o.labels.Stage {
		return k.labels.Stage < o.labels.Stage
	}
	if k.labels.Shard != o.labels.Shard {
		return k.labels.Shard < o.labels.Shard
	}
	return k.labels.Priority < o.labels.Priority
}

// Counter is a monotonically increasing count.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a point-in-time value (queue depth, utilization).
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// HistogramMetric is a labeled latency histogram; it generalizes
// stats.Histogram into the registry's label scheme.
type HistogramMetric struct{ h *stats.Histogram }

// Observe records one value.
func (m *HistogramMetric) Observe(v sim.Time) { m.h.Record(v) }

// Snapshot returns the underlying histogram's summary.
func (m *HistogramMetric) Snapshot() stats.Summary { return m.h.Summarize() }

// Hist exposes the underlying histogram (for CDF export and merging).
func (m *HistogramMetric) Hist() *stats.Histogram { return m.h }

// Registry is a labeled metrics registry: counters, gauges and
// histograms keyed by (name, labels). It is deliberately single-threaded
// — one registry per engine instance (shard), merged after the run —
// which is what makes parallel collection deterministic (see the package
// comment).
type Registry struct {
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*HistogramMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*HistogramMetric),
	}
}

// Counter returns (creating on first use) the counter for (name, labels).
func (r *Registry) Counter(name string, l Labels) *Counter {
	k := metricKey{name: name, labels: l}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge for (name, labels).
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	k := metricKey{name: name, labels: l}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram for
// (name, labels).
func (r *Registry) Histogram(name string, l Labels) *HistogramMetric {
	k := metricKey{name: name, labels: l}
	h, ok := r.hists[k]
	if !ok {
		h = &HistogramMetric{h: stats.NewHistogram()}
		r.hists[k] = h
	}
	return h
}

// Merge folds other into r: counters add, gauges take the maximum (the
// only commutative choice that preserves "peak observed" semantics),
// histograms merge per bucket. All three operations are commutative and
// associative, so the merged registry is identical for any merge order —
// but merge in shard ID order anyway, matching the discipline of every
// other recorder under sharding.
func (r *Registry) Merge(other *Registry) {
	if other == nil {
		return
	}
	for k, c := range other.counters {
		r.Counter(k.name, k.labels).Add(c.v)
	}
	for k, g := range other.gauges {
		dst := r.Gauge(k.name, k.labels)
		if g.v > dst.v {
			dst.v = g.v
		}
	}
	for k, h := range other.hists {
		r.Histogram(k.name, k.labels).h.Merge(h.h)
	}
}

// MergeRegistries combines shard-local registries into a fresh one,
// folding them in slice order.
func MergeRegistries(regs ...*Registry) *Registry {
	out := NewRegistry()
	for _, r := range regs {
		out.Merge(r)
	}
	return out
}

// sortedCounterKeys / sortedGaugeKeys / sortedHistKeys give exporters a
// deterministic iteration order over the underlying maps.
func (r *Registry) sortedCounterKeys() []metricKey {
	keys := make([]metricKey, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

func (r *Registry) sortedGaugeKeys() []metricKey {
	keys := make([]metricKey, 0, len(r.gauges))
	for k := range r.gauges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

func (r *Registry) sortedHistKeys() []metricKey {
	keys := make([]metricKey, 0, len(r.hists))
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// EachHistogram visits histograms in deterministic key order; breakdown
// reports use it to aggregate per-stage latency across devices.
func (r *Registry) EachHistogram(fn func(name string, l Labels, h *HistogramMetric)) {
	for _, k := range r.sortedHistKeys() {
		fn(k.name, k.labels, r.hists[k])
	}
}

// CounterValue sums every counter with the given name whose labels match
// the non-zero fields of filter (empty/zero filter fields match any).
func (r *Registry) CounterValue(name string, filter Labels) uint64 {
	var total uint64
	for k, c := range r.counters {
		if k.name != name || !matches(k.labels, filter) {
			continue
		}
		total += c.v
	}
	return total
}

func matches(l, f Labels) bool {
	if f.Device != "" && l.Device != f.Device {
		return false
	}
	if f.Stage != "" && l.Stage != f.Stage {
		return false
	}
	if f.Shard != "" && l.Shard != f.Shard {
		return false
	}
	if f.Priority != 0 && l.Priority != f.Priority {
		return false
	}
	return true
}
