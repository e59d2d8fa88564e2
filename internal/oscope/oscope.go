// Package oscope is the VORX software oscilloscope (paper §6.2): a
// tool that visualizes how well the processors of an application are
// utilized and how well the computational load is balanced.
//
// Execution data is recorded while the application runs: each node
// kernel reports its accounting intervals to the system tracer
// (package trace) as KAccount spans, and an attached Scope is the
// tracer's forward sink. The oscilloscope later displays one
// synchronized graph per processor, partitioning time into user,
// system, and the idle flavors: waiting for input, waiting for
// output, mixed (some threads on input, some on output), and other.
// The display can be windowed to any interval of execution time and
// rendered at any resolution — the freeze / faster / slower / seek
// controls of the original, in batch form.
package oscope

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

// glyphs maps each time category to its display character.
var glyphs = map[kern.Category]byte{
	kern.CatUser:       'U',
	kern.CatSystem:     's',
	kern.CatIdleInput:  'i',
	kern.CatIdleOutput: 'o',
	kern.CatIdleMixed:  'm',
	kern.CatIdleOther:  '.',
}

// Interval is one accounted span of node time.
type Interval struct {
	Start, End sim.Time
	Cat        kern.Category
}

// Scope records execution data for a set of nodes. It is a
// trace.Sink over the tracer's KAccount spans.
type Scope struct {
	order []string
	recs  map[string][]Interval
	kerns []*kern.Node // live nodes Finalize closes; nil when detached
}

func newScope() *Scope { return &Scope{recs: map[string][]Interval{}} }

// add appends one interval to node's record, listing the node the
// first time it appears.
func (s *Scope) add(node string, iv Interval) {
	ivs, seen := s.recs[node]
	if !seen {
		s.order = append(s.order, node)
	}
	s.recs[node] = append(ivs, iv)
}

// TraceEvent implements trace.Sink: it keeps the KAccount spans whose
// detail names a kernel accounting category and ignores every other
// event.
func (s *Scope) TraceEvent(e trace.Event) {
	if e.Kind != trace.KAccount {
		return
	}
	if cat, ok := kern.ParseCategory(e.Detail); ok {
		s.add(e.Node, Interval{Start: e.At, End: e.At.Add(e.Dur), Cat: cat})
	}
}

// Attach starts recording on every machine of the system: it lists
// the machines in machine order, enables the system tracer and takes
// its forward slot, replacing any sink installed there before. Call
// before running the application.
func Attach(sys *core.System) *Scope {
	s := newScope()
	for _, m := range sys.Machines() {
		s.order = append(s.order, m.Name())
		s.recs[m.Name()] = nil
		s.kerns = append(s.kerns, m.Kern)
	}
	sys.Trace.SetForward(s)
	sys.Trace.Enable()
	return s
}

// Finalize closes each node's in-progress interval; call after the
// run, before rendering.
func (s *Scope) Finalize() {
	for _, n := range s.kerns {
		n.Totals()
	}
}

// Nodes returns the recorded node names in attach order.
func (s *Scope) Nodes() []string { return append([]string(nil), s.order...) }

// Intervals returns the recorded intervals for a node.
func (s *Scope) Intervals(node string) []Interval { return s.recs[node] }

// Utilization returns the fraction of [from,to) each category
// occupies on the node.
func (s *Scope) Utilization(node string, from, to sim.Time) map[kern.Category]float64 {
	total := to.Sub(from)
	if total <= 0 {
		return nil
	}
	out := map[kern.Category]float64{}
	for _, iv := range s.recs[node] {
		a, b := iv.Start, iv.End
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			out[iv.Cat] += float64(b.Sub(a)) / float64(total)
		}
	}
	return out
}

// dominant returns the category occupying the most of [a,b) on the
// node, defaulting to idle-other.
func (s *Scope) dominant(node string, a, b sim.Time) kern.Category {
	best := kern.CatIdleOther
	var bestD sim.Duration
	var acc [8]sim.Duration
	for _, iv := range s.recs[node] {
		x, y := iv.Start, iv.End
		if x < a {
			x = a
		}
		if y > b {
			y = b
		}
		if y > x {
			acc[iv.Cat] += y.Sub(x)
		}
	}
	for _, c := range kern.Categories() {
		if acc[c] > bestD {
			best, bestD = c, acc[c]
		}
	}
	return best
}

// Render draws one row per node covering [from,to) in width columns;
// every row shows the same interval of execution time (the graphs are
// synchronized). Each cell shows the dominant category: U=user,
// s=system, i=idle-input, o=idle-output, m=idle-mixed, .=idle-other.
func (s *Scope) Render(w io.Writer, from, to sim.Time, width int) {
	if width <= 0 {
		width = 60
	}
	span := to.Sub(from)
	if span <= 0 {
		fmt.Fprintln(w, "oscope: empty window")
		return
	}
	fmt.Fprintf(w, "oscope: %v .. %v (%v per column)\n", from, to, sim.Duration(int64(span)/int64(width)))
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	for _, name := range names {
		row := make([]byte, width)
		for c := 0; c < width; c++ {
			a := from.Add(sim.Duration(int64(span) * int64(c) / int64(width)))
			b := from.Add(sim.Duration(int64(span) * int64(c+1) / int64(width)))
			row[c] = glyphs[s.dominant(name, a, b)]
		}
		u := s.Utilization(name, from, to)
		fmt.Fprintf(w, "%-8s |%s| %3.0f%% busy\n", name, row,
			100*(u[kern.CatUser]+u[kern.CatSystem]))
	}
	fmt.Fprintln(w, "legend: U=user s=system i=idle-input o=idle-output m=idle-mixed .=idle-other")
}

// RenderAll renders the full recorded time range.
func (s *Scope) RenderAll(w io.Writer, width int) {
	var lo, hi sim.Time
	first := true
	for _, ivs := range s.recs {
		for _, iv := range ivs {
			if first || iv.Start < lo {
				lo = iv.Start
			}
			if first || iv.End > hi {
				hi = iv.End
			}
			first = false
		}
	}
	if first {
		fmt.Fprintln(w, "oscope: no data recorded")
		return
	}
	s.Render(w, lo, hi, width)
}

// Imbalance reports the busy-fraction spread across nodes over
// [from,to): max minus min of (user+system). A well balanced
// application has a small imbalance.
func (s *Scope) Imbalance(from, to sim.Time) float64 {
	minB, maxB := 2.0, -1.0
	for _, name := range s.order {
		u := s.Utilization(name, from, to)
		busy := u[kern.CatUser] + u[kern.CatSystem]
		if busy < minB {
			minB = busy
		}
		if busy > maxB {
			maxB = busy
		}
	}
	if maxB < 0 {
		return 0
	}
	return maxB - minB
}

// String renders the full range at default width.
func (s *Scope) String() string {
	var b strings.Builder
	s.RenderAll(&b, 60)
	return b.String()
}
