// Package obs is the analysis layer on top of internal/trace: it
// consumes the causal event stream (live through a Sink, or replayed
// from a flight-recorder dump) and turns per-write trace IDs into an
// exact decomposition of where each write's virtual time went. It
// also samples the metrics registry into virtual-time series
// (sampler.go) and exports both in open formats (openmetrics.go).
//
// Everything here is host-side: attaching an Analyzer or Sampler never
// schedules a simulation event, so analyzed runs are byte-identical to
// unanalyzed ones — the same discipline internal/trace established.
package obs

import (
	"fmt"
	"io"
	"sort"

	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

// Component names one destination a slice of a write's end-to-end
// virtual-time latency is attributed to. The components partition the
// interval [KWrite.At, last KAck.At] exactly: every nanosecond lands
// in exactly one bucket, which is what makes the decomposition an
// accounting identity rather than an estimate (asserted by
// Report.Check).
type Component int

const (
	// CompWire is link transmission: arbitration won through hop
	// complete (fixed hop cost + bytes on the wire + propagation,
	// including degraded-link slowdown), plus vchan broker forwards.
	CompWire Component = iota
	// CompQueue is output-port and buffer queueing: waiting for an
	// output section, stalled behind busy/failed links, and sitting
	// in intermediate cube buffers between hops.
	CompQueue
	// CompInterrupt is receive-side cost: input-section arrival
	// through interrupt dispatch (including coalescing holds) and the
	// kernel-copy/service path down to channel delivery and ack
	// generation.
	CompInterrupt
	// CompBusy is refuse/busy stall: from the receiver discarding a
	// fragment for want of side buffers until the sender re-sends.
	CompBusy
	// CompRetransmit is retransmit penalty: the re-sent fragment's
	// whole journey (and any timeout wait preceding it) until the
	// receiver finally accepts the message.
	CompRetransmit
	// CompMigration is outage/migration gap: time during which an
	// involved machine was crashed (crash..restart window), plus the
	// wait after a fence or stale-term refusal until replay delivers.
	CompMigration

	NumComponents
)

var compNames = [NumComponents]string{
	"wire", "queue", "interrupt", "busy", "retransmit", "migration",
}

func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return compNames[c]
}

// WriteLatency is the attribution of one traced write.
type WriteLatency struct {
	TID        uint64
	Node       string // writer's machine
	Lane       string // channel lane ("chan/<name>")
	Start, End sim.Time
	Total      sim.Duration // End - Start; == sum(Comp) exactly
	Comp       [NumComponents]sim.Duration
	Frags      int // fragments first-sent
	Hops       int // completed link transmissions (all tid traffic)
	Busies     int // busy refusals suffered
	Rexmits    int // fragments re-sent
	Complete   bool
}

// Analyzer buffers a trace event stream for analysis. It implements
// trace.Sink, so it can ride a Tracer's forward slot live (see Tee),
// or be fed a replayed dump via Analyze. Analysis itself is batch —
// Report walks whatever has arrived so far.
type Analyzer struct {
	events []trace.Event
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// TraceEvent implements trace.Sink: record and move on. Nil-safe.
func (a *Analyzer) TraceEvent(e trace.Event) {
	if a == nil {
		return
	}
	a.events = append(a.events, e)
}

// Len reports how many events have been captured.
func (a *Analyzer) Len() int {
	if a == nil {
		return 0
	}
	return len(a.events)
}

// Report analyzes the captured stream.
func (a *Analyzer) Report() *Report { return Analyze(a.events) }

// span is a closed-open virtual-time interval.
type span struct{ from, to sim.Time }

const timeInf = sim.Time(1<<63 - 1)

// mark is one causally ordered point on a write's timeline. Synthetic
// hop-end marks reuse the KHop event's Seq: complete() records the
// hop span at the completion instant before any downstream
// processing, so that Seq sorts correctly among the completion-time
// marks even though the event's At is the transmission start.
type mark struct {
	at     sim.Time
	seq    uint64
	kind   trace.Kind
	node   string
	lane   string
	hopEnd bool
}

// Analyze attributes every traced write in the event slice. Events
// need not be sorted; ring-truncated streams degrade gracefully (a
// write whose KWrite or KAck fell off the ring is reported
// incomplete and excluded from aggregates).
func Analyze(events []trace.Event) *Report {
	rep := &Report{
		Events: len(events),
		reg:    trace.NewRegistry(nil),
	}

	// Pass 1: crash windows per machine, and per-tid mark lists.
	down := make(map[string][]span)
	open := make(map[string]sim.Time)
	byTID := make(map[uint64][]mark)
	var tids []uint64
	for _, e := range events {
		switch e.Kind {
		case trace.KCrash:
			if _, ok := open[e.Node]; !ok {
				open[e.Node] = e.At
			}
		case trace.KRestart:
			if from, ok := open[e.Node]; ok {
				down[e.Node] = append(down[e.Node], span{from, e.At})
				delete(open, e.Node)
			}
		}
		if e.TID == 0 {
			continue
		}
		if _, ok := byTID[e.TID]; !ok {
			tids = append(tids, e.TID)
		}
		m := mark{at: e.At, seq: e.Seq, kind: e.Kind, node: e.Node, lane: e.Lane}
		if e.Kind == trace.KHop && e.Dur > 0 {
			// Fabric hop span: the start instant is already marked
			// by KAcquire; keep only the completion.
			m.at = e.At + sim.Time(e.Dur)
			m.hopEnd = true
		}
		byTID[e.TID] = append(byTID[e.TID], m)
	}
	for node, from := range open {
		down[node] = append(down[node], span{from, timeInf})
	}

	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		// The fabric stamps a trace ID on every message it carries;
		// only those with channel-protocol marks are writes. Pure
		// fabric/control flows (objmgr lookups, heartbeats, vchan
		// control) are counted but not attributed.
		if !isWriteFlow(byTID[tid]) {
			rep.Flows++
			continue
		}
		wl := attribute(tid, byTID[tid], down)
		rep.Writes = append(rep.Writes, wl)
		if !wl.Complete {
			rep.Incomplete++
			continue
		}
		rep.TotalLat += wl.Total
		rep.reg.Histogram("lat.end_to_end", obsBounds...).Observe(float64(wl.Total))
		for c := Component(0); c < NumComponents; c++ {
			rep.CompTotal[c] += wl.Comp[c]
			if wl.Comp[c] > 0 {
				rep.reg.Histogram("lat."+compNames[c], obsBounds...).Observe(float64(wl.Comp[c]))
			}
		}
	}
	sort.Slice(rep.Writes, func(i, j int) bool {
		a, b := rep.Writes[i], rep.Writes[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.TID < b.TID
	})
	return rep
}

// isWriteFlow reports whether a tid's marks belong to a channel write:
// either the KWrite root survived, or (ring truncation) some other
// channel-protocol mark did.
func isWriteFlow(marks []mark) bool {
	for _, m := range marks {
		if m.hopEnd {
			continue
		}
		switch m.kind {
		case trace.KWrite, trace.KFragment, trace.KChanDel, trace.KAck,
			trace.KBusy, trace.KResume, trace.KRetransmit, trace.KWindow:
			return true
		}
	}
	return false
}

// attribute walks one write's marks and partitions [KWrite, last KAck]
// into components. The walk keeps a base phase derived from the most
// recent mark kind, overridden by an epoch when the write is inside a
// busy stall, a retransmission, or a fence/migration recovery — the
// control traffic those episodes generate rides the same trace ID and
// would otherwise be mislabeled wire/queue time.
func attribute(tid uint64, marks []mark, down map[string][]span) WriteLatency {
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].at != marks[j].at {
			return marks[i].at < marks[j].at
		}
		return marks[i].seq < marks[j].seq
	})

	wl := WriteLatency{TID: tid}
	end := sim.Time(-1)
	for _, m := range marks {
		switch {
		case m.hopEnd:
			wl.Hops++
		case m.kind == trace.KWrite:
			wl.Node, wl.Lane = m.node, m.lane
		case m.kind == trace.KFragment:
			wl.Frags++
		case m.kind == trace.KBusy:
			wl.Busies++
		case m.kind == trace.KRetransmit:
			wl.Rexmits++
		}
		if m.kind == trace.KAck && !m.hopEnd {
			end = m.at
		}
	}
	if len(marks) == 0 || marks[0].kind != trace.KWrite || end < 0 {
		return wl // head or tail lost (ring wrap, crash): incomplete
	}
	wl.Start, wl.End, wl.Complete = marks[0].at, end, true
	wl.Total = sim.Duration(end - marks[0].at)

	// Crash windows of every machine this write touched, merged.
	outages := participantOutages(marks, down)

	const epochNone = -1
	epoch := Component(epochNone)
	base := CompQueue
	for i := 0; i+1 < len(marks); i++ {
		m, next := marks[i], marks[i+1]
		if m.at >= end {
			break
		}
		// State transition on the mark we just passed.
		if !m.hopEnd {
			switch m.kind {
			case trace.KBusy, trace.KResume:
				epoch = CompBusy
			case trace.KRetransmit:
				epoch = CompRetransmit
			case trace.KFence, trace.KMigrate:
				epoch = CompMigration
			case trace.KChanDel:
				epoch = epochNone
				base = CompInterrupt
			default:
				if epoch == epochNone {
					if b, ok := baseFor(m.kind); ok {
						base = b
					}
				}
			}
		} else if epoch == epochNone {
			base = CompQueue // sitting in the downstream hop buffer
		}
		a, b := m.at, next.at
		if b > end {
			b = end
		}
		if b <= a {
			continue
		}
		label := base
		if epoch != epochNone {
			label = epoch
		}
		gap := overlap(outages, a, b)
		wl.Comp[CompMigration] += gap
		if label != CompMigration {
			wl.Comp[label] += sim.Duration(b-a) - gap
		} else if rest := sim.Duration(b-a) - gap; rest > 0 {
			wl.Comp[CompMigration] += rest
		}
	}
	return wl
}

// baseFor maps a mark kind to the component that accounts for the
// time FOLLOWING it, in the normal (no-episode) epoch. The bool is
// false for kinds that say nothing about what comes next (window
// credits, reads, flow control notes) — the previous phase holds.
func baseFor(k trace.Kind) (Component, bool) {
	switch k {
	case trace.KWrite, trace.KFragment, trace.KEnqueue, trace.KBlocked:
		return CompQueue, true
	case trace.KAcquire, trace.KHop: // KHop here: instant vchan broker forward
		return CompWire, true
	case trace.KDeliver, trace.KService:
		return CompInterrupt, true
	}
	return 0, false
}

// participantOutages merges the crash windows of every machine named
// in the write's marks. Merging first keeps the later overlap sum
// from double-counting instants when two participants were down at
// once — exactness depends on it.
func participantOutages(marks []mark, down map[string][]span) []span {
	var spans []span
	seen := map[string]bool{}
	for _, m := range marks {
		if m.node == "" || seen[m.node] {
			continue
		}
		seen[m.node] = true
		spans = append(spans, down[m.node]...)
	}
	if len(spans) <= 1 {
		return spans
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.from <= last.to {
			if s.to > last.to {
				last.to = s.to
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// overlap sums the intersection of [a, b) with the merged outage set.
func overlap(outages []span, a, b sim.Time) sim.Duration {
	var d sim.Duration
	for _, s := range outages {
		lo, hi := s.from, s.to
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			d += sim.Duration(hi - lo)
		}
	}
	return d
}

// obsBounds is a 1-2-5 ladder from 1µs to 1s (in ns): finer than
// trace.DefaultBounds so Quantile interpolation has something to work
// with at the p999 tail.
var obsBounds = []float64{
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
	1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
}

// Report is the result of one analysis pass.
type Report struct {
	Events     int
	Writes     []WriteLatency // sorted by (Start, TID)
	Incomplete int
	Flows      int          // traced non-write flows (control, objmgr, heartbeats)
	TotalLat   sim.Duration // sum over complete writes
	CompTotal  [NumComponents]sim.Duration

	reg *trace.Registry // lat.* histograms feeding the quantiles
}

// Metrics exposes the report's latency histograms (lat.end_to_end,
// lat.<component>) — the registry OpenMetrics export reads.
func (r *Report) Metrics() *trace.Registry { return r.reg }

// CompleteWrites counts writes whose full causal chain was observed.
func (r *Report) CompleteWrites() int { return len(r.Writes) - r.Incomplete }

// Check asserts the accounting identity on every complete write: the
// component sums must equal the observed end-to-end latency to the
// nanosecond. A non-nil error means the analyzer (not the run) is
// wrong.
func (r *Report) Check() error {
	for _, w := range r.Writes {
		if !w.Complete {
			continue
		}
		var sum sim.Duration
		for _, d := range w.Comp {
			sum += d
		}
		if sum != w.Total {
			return fmt.Errorf("obs: tid %d components sum to %v, end-to-end is %v", w.TID, sum, w.Total)
		}
		if sim.Duration(w.End-w.Start) != w.Total {
			return fmt.Errorf("obs: tid %d span %v..%v disagrees with total %v", w.TID, w.Start, w.End, w.Total)
		}
	}
	return nil
}

// Quantile reports the q-th quantile of a component's per-write
// latency contribution in nanoseconds (series "end_to_end" for the
// full latency). Zero when no complete write touched the component.
func (r *Report) Quantile(series string, q float64) float64 {
	return r.reg.Histogram("lat."+series, obsBounds...).Quantile(q)
}

// Share is a component's fraction of all attributed virtual time.
func (r *Report) Share(c Component) float64 {
	if r.TotalLat == 0 {
		return 0
	}
	return float64(r.CompTotal[c]) / float64(r.TotalLat)
}

func us(d sim.Duration) float64 { return float64(d) / 1e3 }

// WriteTable renders the aggregate decomposition. Deterministic: all
// numbers are virtual-time.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "latency attribution: %d events, %d writes (%d complete, %d incomplete), %d other flows\n",
		r.Events, len(r.Writes), r.CompleteWrites(), r.Incomplete, r.Flows)
	if r.CompleteWrites() == 0 {
		return
	}
	fmt.Fprintf(w, "  %-12s %12s %7s %10s %10s %10s\n",
		"component", "total(µs)", "share", "p50(µs)", "p99(µs)", "p999(µs)")
	for c := Component(0); c < NumComponents; c++ {
		h := r.reg.Histogram("lat."+compNames[c], obsBounds...)
		fmt.Fprintf(w, "  %-12s %12.1f %6.1f%% %10.1f %10.1f %10.1f\n",
			compNames[c], us(r.CompTotal[c]), 100*r.Share(c),
			h.Quantile(0.50)/1e3, h.Quantile(0.99)/1e3, h.Quantile(0.999)/1e3)
	}
	h := r.reg.Histogram("lat.end_to_end", obsBounds...)
	fmt.Fprintf(w, "  %-12s %12.1f %6.1f%% %10.1f %10.1f %10.1f\n",
		"end-to-end", us(r.TotalLat), 100.0,
		h.Quantile(0.50)/1e3, h.Quantile(0.99)/1e3, h.Quantile(0.999)/1e3)
	if err := r.Check(); err != nil {
		fmt.Fprintf(w, "  ATTRIBUTION BROKEN: %v\n", err)
	} else {
		fmt.Fprintf(w, "  sums exact: %d/%d writes\n", r.CompleteWrites(), r.CompleteWrites())
	}
}

// TopN returns the n slowest complete writes (ties broken by TID);
// none for n <= 0.
func (r *Report) TopN(n int) []WriteLatency {
	if n <= 0 {
		return nil
	}
	var c []WriteLatency
	for _, w := range r.Writes {
		if w.Complete {
			c = append(c, w)
		}
	}
	sort.Slice(c, func(i, j int) bool {
		if c[i].Total != c[j].Total {
			return c[i].Total > c[j].Total
		}
		return c[i].TID < c[j].TID
	})
	if n < len(c) {
		c = c[:n]
	}
	return c
}

// WriteTop renders the n slowest writes with their breakdowns.
func (r *Report) WriteTop(w io.Writer, n int) {
	top := r.TopN(n)
	if len(top) == 0 {
		return
	}
	fmt.Fprintf(w, "slowest writes:\n")
	for _, wl := range top {
		fmt.Fprintf(w, "  tid %-5d %-8s %-16s start=%-12v total=%8.1fµs ", wl.TID, wl.Node, wl.Lane, wl.Start, us(wl.Total))
		for c := Component(0); c < NumComponents; c++ {
			if wl.Comp[c] > 0 {
				fmt.Fprintf(w, " %s=%.1fµs", compNames[c], us(wl.Comp[c]))
			}
		}
		fmt.Fprintf(w, "  (frags=%d hops=%d busy=%d rexmit=%d)\n", wl.Frags, wl.Hops, wl.Busies, wl.Rexmits)
	}
}

// Tee fans one event stream out to several sinks — a Tracer's forward
// slot holds a single Sink, and live analysis wants both an Analyzer
// and a Sampler attached. Nil sinks are dropped.
func Tee(sinks ...trace.Sink) trace.Sink {
	var t tee
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	return t
}

type tee []trace.Sink

func (t tee) TraceEvent(e trace.Event) {
	for _, s := range t {
		s.TraceEvent(e)
	}
}
