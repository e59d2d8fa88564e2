package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"hpcvorx/internal/sim"
)

// Registry holds the metrics of one traced run: counters, gauges, and
// histograms, each stamped with the virtual time of its last update.
// Instrument names are dotted paths ("hpc.link.up5.busy_ns",
// "chan.retransmits") so the rendered table groups naturally.
type Registry struct {
	clock    func() sim.Time
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry. clock supplies the virtual
// timestamp for updates; nil means all timestamps stay zero.
func NewRegistry(clock func() sim.Time) *Registry {
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	return &Registry{
		clock:    clock,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically growing sum.
type Counter struct {
	clock func() sim.Time
	V     float64
	At    sim.Time // virtual time of the last Add
}

// Add increments the counter.
func (c *Counter) Add(d float64) {
	c.V += d
	c.At = c.clock()
}

// Gauge is a sampled level with its observed extremes.
type Gauge struct {
	clock    func() sim.Time
	V        float64
	Min, Max float64
	At       sim.Time
	set      bool
}

// Set records the gauge's current level.
func (g *Gauge) Set(v float64) {
	g.V = v
	if !g.set || v < g.Min {
		g.Min = v
	}
	if !g.set || v > g.Max {
		g.Max = v
	}
	g.set = true
	g.At = g.clock()
}

// DefaultBounds is the bucket layout Observe-created histograms use:
// decades from 1µs to 100ms, in nanoseconds — a fit for the latency
// distributions this simulator produces.
var DefaultBounds = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// Histogram accumulates a value distribution into fixed buckets.
type Histogram struct {
	Bounds   []float64 // bucket i counts v <= Bounds[i]; one overflow bucket
	Buckets  []uint64
	N        uint64
	Sum      float64
	Min, Max float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Buckets[i]++
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
}

// Mean returns the average of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the bucket that contains the target rank. The
// first bucket interpolates up from the observed minimum and the
// overflow bucket up to the observed maximum, so estimates never leave
// [Min, Max]. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.N)
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo := h.Min
			if i > 0 && h.Bounds[i-1] > lo {
				lo = h.Bounds[i-1]
			}
			hi := h.Max
			if i < len(h.Bounds) && h.Bounds[i] < hi {
				hi = h.Bounds[i]
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.Max
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{clock: r.clock}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{clock: r.clock}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Bounds
// apply only on creation; omitted, DefaultBounds is used.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DefaultBounds
		}
		h = &Histogram{
			Bounds:  append([]float64(nil), bounds...),
			Buckets: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// EachCounter visits every counter in name order. The sorted walk is
// what exporters (OpenMetrics, CSV) build on: same registry, same
// bytes.
func (r *Registry) EachCounter(fn func(name string, c *Counter)) {
	for _, n := range sortedKeys(r.counters) {
		fn(n, r.counters[n])
	}
}

// EachGauge visits every gauge in name order.
func (r *Registry) EachGauge(fn func(name string, g *Gauge)) {
	for _, n := range sortedKeys(r.gauges) {
		fn(n, r.gauges[n])
	}
}

// EachHistogram visits every histogram in name order.
func (r *Registry) EachHistogram(fn func(name string, h *Histogram)) {
	for _, n := range sortedKeys(r.hists) {
		fn(n, r.hists[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snap is a point-in-time flattening of every instrument: counters and
// gauges by name, histograms as name.count and name.sum.
type Snap map[string]float64

// Snapshot flattens the registry's current values.
func (r *Registry) Snapshot() Snap {
	s := make(Snap, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for n, c := range r.counters {
		s[n] = c.V
	}
	for n, g := range r.gauges {
		s[n] = g.V
	}
	for n, h := range r.hists {
		s[n+".count"] = float64(h.N)
		s[n+".sum"] = h.Sum
	}
	return s
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// WriteTable renders every instrument, sorted by name within section,
// with virtual-time stamps of the last update. Deterministic.
func (r *Registry) WriteTable(w io.Writer) {
	if len(r.counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		names := make([]string, 0, len(r.counters))
		for n := range r.counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			c := r.counters[n]
			fmt.Fprintf(w, "  %-44s %14s  (last %s)\n", n, fmtVal(c.V), c.At)
		}
	}
	if len(r.gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		names := make([]string, 0, len(r.gauges))
		for n := range r.gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			g := r.gauges[n]
			fmt.Fprintf(w, "  %-44s %14s  min %s max %s  (last %s)\n",
				n, fmtVal(g.V), fmtVal(g.Min), fmtVal(g.Max), g.At)
		}
	}
	if len(r.hists) > 0 {
		fmt.Fprintf(w, "histograms:\n")
		names := make([]string, 0, len(r.hists))
		for n := range r.hists {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := r.hists[n]
			fmt.Fprintf(w, "  %-44s n=%d mean=%s min=%s max=%s\n",
				n, h.N, fmtVal(h.Mean()), fmtVal(h.Min), fmtVal(h.Max))
		}
	}
}
