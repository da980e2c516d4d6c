// Package obs is the simulator's observability layer: a zero-dependency
// metrics registry (counters, gauges, log-bucketed histograms), a decimating
// fixed-capacity sequence for time series, a Chrome trace-event builder for
// chrome://tracing / Perfetto, and a wall-time phase timer for profiling the
// simulation loop itself.
//
// The package deliberately knows nothing about the pipeline: internal/cpu
// publishes into it, internal/report serializes out of it. With the single
// exception of SharedRegistry — the mutex-guarded aggregation point that
// cross-goroutine consumers (the harness progress tracker, the obsweb
// server) read through Snapshot — none of the types are goroutine-safe; each
// simulation owns its own registry, matching the one-pipeline-per-goroutine
// concurrency model of the harness, and hands it to a SharedRegistry via
// Merge only when the run is done.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v int64
}

// Add increases the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Set overwrites the counter value; used by publishers that mirror an
// externally accumulated total (e.g. cpu.Stats) into the registry.
func (c *Counter) Set(v int64) { c.v = v }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous floating-point measurement.
type Gauge struct {
	v float64
}

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Registry is an ordered collection of named metrics. Names are unique
// across all three kinds; lookups create on first use and iteration follows
// registration order so serialized output is deterministic.
type Registry struct {
	order    []string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func (r *Registry) checkNew(name string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
	}
}

// Counter returns the counter with the given name, creating it on first use.
// It panics if the name is registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkNew(name)
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkNew(name)
	g := &Gauge{}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkNew(name)
	h := NewHistogram()
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Columns returns the flattened scalar column names the registry expands to
// when sampled: one column per counter and gauge, and count/mean/p50/p90/
// p99/max columns per histogram.
func (r *Registry) Columns() []string {
	var cols []string
	for _, name := range r.order {
		if _, ok := r.hists[name]; ok {
			for _, s := range histColumns {
				cols = append(cols, name+"."+s)
			}
			continue
		}
		cols = append(cols, name)
	}
	return cols
}

var histColumns = []string{"count", "mean", "p50", "p90", "p99", "max"}

// Row appends the current scalar values in Columns order to dst. Counters
// are reported as deltas against prev (keyed by name, updated in place), so
// a caller sampling a sequence of snapshots accumulates interval rows that
// sum back to the final totals; gauges and histogram summaries report raw.
func (r *Registry) Row(dst []float64, prev map[string]int64) []float64 {
	for _, name := range r.order {
		if c, ok := r.counters[name]; ok {
			v := c.Value()
			dst = append(dst, float64(v-prev[name]))
			prev[name] = v
			continue
		}
		if g, ok := r.gauges[name]; ok {
			dst = append(dst, g.Value())
			continue
		}
		h := r.hists[name]
		dst = append(dst,
			float64(h.Count()), h.Mean(),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99),
			float64(h.Max()))
	}
	return dst
}

// Merge folds every metric of o into r, creating names on first sight (in
// o's registration order) and panicking on kind conflicts. Counters add,
// gauges take o's value (last merge wins), histograms merge sample-exactly.
// Merge each source registry at most once per aggregation epoch: merging the
// same counters twice double-counts them.
func (r *Registry) Merge(o *Registry) {
	for _, name := range o.order {
		switch {
		case o.counters[name] != nil:
			r.Counter(name).Add(o.counters[name].Value())
		case o.gauges[name] != nil:
			r.Gauge(name).Set(o.gauges[name].Value())
		default:
			r.Histogram(name).Merge(o.hists[name])
		}
	}
}

// Clone returns an independent deep copy of r, preserving registration
// order. Mutating either registry afterwards leaves the other untouched.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	c.order = append(c.order, r.order...)
	for name, v := range r.counters {
		c.counters[name] = &Counter{v: v.v}
	}
	for name, v := range r.gauges {
		c.gauges[name] = &Gauge{v: v.v}
	}
	for name, h := range r.hists {
		c.hists[name] = h.Clone()
	}
	return c
}

// String renders a sorted one-line-per-metric summary, for debugging.
func (r *Registry) String() string {
	names := r.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		switch {
		case r.counters[name] != nil:
			fmt.Fprintf(&b, "%s %d\n", name, r.counters[name].Value())
		case r.gauges[name] != nil:
			fmt.Fprintf(&b, "%s %g\n", name, r.gauges[name].Value())
		default:
			h := r.hists[name]
			fmt.Fprintf(&b, "%s count=%d mean=%.2f p50=%.0f p99=%.0f max=%d\n",
				name, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
		}
	}
	return b.String()
}
