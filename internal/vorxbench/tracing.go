package vorxbench

import (
	"fmt"
	"sort"

	"hpcvorx/internal/core"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/workload"
)

// e14run is one all-to-one run with or without the unified tracer.
type e14run struct {
	makespan sim.Duration // workload start..finish in virtual time
	quiesce  sim.Time     // kernel time at quiescence
	events   int
	sys      *core.System
}

func e14Run(traced bool) e14run {
	sys, err := core.Build(core.Config{Nodes: 20, Seed: 1})
	if err != nil {
		panic(err)
	}
	if traced {
		sys.Trace.Enable()
	}
	mk := workload.ManyToOne(sys, 800, 10)
	return e14run{makespan: mk, quiesce: sys.K.Now(), events: sys.Trace.Len(), sys: sys}
}

// E14TracingOverhead measures the cost of the unified event tracer on
// the standard all-to-one workload (the vorx links demo: 20 nodes,
// 800-byte messages, 10 per sender). The design claim is that tracing
// is recorded host-side only, so virtual time must be bit-identical
// with tracing on; only wall clock and memory may pay, which perfbench
// measures with repeats (trace.overhead_frac).
func E14TracingOverhead() *Table {
	off := e14Run(false)
	on := e14Run(true)
	t := &Table{
		ID:     "E14",
		Title:  "Unified tracing overhead, all-to-one on 20 nodes (extension)",
		Header: []string{"metric", "tracing off", "tracing on"},
	}
	t.AddRow("virtual makespan", fmt.Sprintf("%v", off.makespan), fmt.Sprintf("%v", on.makespan))
	t.AddRow("virtual quiesce", fmt.Sprintf("%v", off.quiesce), fmt.Sprintf("%v", on.quiesce))
	t.AddRow("events recorded", fmt.Sprintf("%d", off.events), fmt.Sprintf("%d", on.events))
	if off.makespan == on.makespan && off.quiesce == on.quiesce {
		t.Note("virtual-time perturbation: zero — the traced run is bit-identical in virtual time")
	} else {
		t.Note("virtual-time perturbation DETECTED: makespan %v vs %v — tracing must not alter the simulation",
			off.makespan, on.makespan)
	}

	// Metrics the traced run collected: fabric refusals and the
	// utilization of the busiest links over the run.
	snap := on.sys.Trace.Metrics().Snapshot()
	t.Note("fabric flow control: %.0f blocked link requests while delivering %.0f messages (%.0f KB)",
		snap["hpc.blocked"], snap["hpc.delivered"], snap["hpc.bytes"]/1024)
	stats := on.sys.IC.LinkStats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Busy > stats[j].Busy })
	span := on.quiesce.Sub(sim.Time(0))
	for i, ls := range stats {
		if i >= 3 || ls.Busy == 0 {
			break
		}
		t.Note("link utilization #%d: %-6s %5.1f%% busy, %d messages",
			i+1, ls.Name, 100*float64(ls.Busy)/float64(span), ls.Messages)
	}
	return t
}
