package vorxbench

import (
	"fmt"

	"hpcvorx/internal/core"
	"hpcvorx/internal/obs"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/workload"
)

// E18 is the latency observatory's showcase: the same comm-profile
// sweep E15 times end-to-end, but decomposed — each write's
// virtual-time latency attributed to wire / queue / interrupt /
// recovery components by the causal critical-path analyzer, so the
// table shows not just that the pipelined generation is faster but
// where the time it saved used to go. A congested all-to-one row
// exercises the busy-stall component. The analyzer and series sampler
// ride the tracer's forward sink; the perturbation note asserts they
// change virtual time not at all (their host-side cost is perfbench's
// trace.overhead_frac).

// e18point is one analyzed run.
type e18point struct {
	rep     *obs.Report
	mk      sim.Duration // workload virtual makespan
	quiesce sim.Time
	samples int
}

// e18Run executes wl on a fresh system, optionally with the full
// observatory (tracer + analyzer + series sampler) attached.
func e18Run(cfg core.Config, analyzed bool, wl func(sys *core.System) sim.Duration) e18point {
	sys, err := core.Build(cfg)
	if err != nil {
		panic(err)
	}
	var an *obs.Analyzer
	var smp *obs.Sampler
	if analyzed {
		sys.Trace.Enable()
		an = obs.NewAnalyzer()
		smp = obs.NewSampler(sys.Trace.Metrics(), 500*sim.Microsecond)
		sys.Trace.SetForward(obs.Tee(an, smp))
	}
	mk := wl(sys)
	p := e18point{mk: mk, quiesce: sys.K.Now()}
	if analyzed {
		smp.Flush(sys.K.Now())
		p.rep = an.Report()
		p.samples = smp.Len()
	}
	return p
}

func e18Stream(cp core.CommProfile, analyzed bool) e18point {
	return e18Run(core.Config{Nodes: 2, Seed: 1, Comm: cp}, analyzed, func(sys *core.System) sim.Duration {
		return workload.Stream(sys, 8192, 64)
	})
}

func e18ManyToOne(analyzed bool) e18point {
	return e18Run(core.Config{Nodes: 20, Seed: 1}, analyzed, func(sys *core.System) sim.Duration {
		return workload.ManyToOne(sys, 800, 10)
	})
}

// e18Decomp renders wire/queue/interrupt shares; e18Recovery the
// busy+retransmit+migration share.
func e18Decomp(rep *obs.Report) string {
	return fmt.Sprintf("%.0f/%.0f/%.0f",
		100*rep.Share(obs.CompWire), 100*rep.Share(obs.CompQueue), 100*rep.Share(obs.CompInterrupt))
}

// decompCell is e18Decomp for tables whose rows may carry no traced
// channel writes at all (e.g. the UDO transport).
func decompCell(rep *obs.Report) string {
	if rep == nil || rep.CompleteWrites() == 0 {
		return "-"
	}
	return e18Decomp(rep)
}

func e18Recovery(rep *obs.Report) string {
	return fmt.Sprintf("%.1f",
		100*(rep.Share(obs.CompBusy)+rep.Share(obs.CompRetransmit)+rep.Share(obs.CompMigration)))
}

// E18LatencyObservatory sweeps comm profiles under the critical-path
// analyzer and reports the latency decomposition per profile.
func E18LatencyObservatory() *Table {
	t := &Table{
		ID:    "E18",
		Title: "latency observatory: per-component attribution across comm profiles",
		Header: []string{"workload", "profile", "writes", "p50 (us)", "p99 (us)",
			"wire/queue/intr (%)", "recovery (%)"},
	}

	cases := []struct {
		label string
		cp    core.CommProfile
	}{
		{"classic", core.Classic()},
		{"window 8", core.CommProfile{Window: 8}},
		{"window 8 depth 4", core.CommProfile{Window: 8, OutputDepth: 4}},
		{"pipelined", core.Pipelined()},
	}
	exact, total, pipeSamples := 0, 0, 0
	for _, c := range cases {
		p := e18Stream(c.cp, true)
		rep := p.rep
		if c.label == "pipelined" {
			pipeSamples = p.samples
		}
		t.AddRow(
			"stream 64x8KB",
			c.label,
			fmt.Sprint(rep.CompleteWrites()),
			us(rep.Quantile("end_to_end", 0.50)/1e3),
			us(rep.Quantile("end_to_end", 0.99)/1e3),
			e18Decomp(rep),
			e18Recovery(rep),
		)
		if rep.Check() == nil {
			exact += rep.CompleteWrites()
		}
		total += rep.CompleteWrites()
	}

	many := e18ManyToOne(true)
	t.AddRow(
		"all-to-one 19x10",
		"classic",
		fmt.Sprint(many.rep.CompleteWrites()),
		us(many.rep.Quantile("end_to_end", 0.50)/1e3),
		us(many.rep.Quantile("end_to_end", 0.99)/1e3),
		e18Decomp(many.rep),
		e18Recovery(many.rep),
	)
	if many.rep.Check() == nil {
		exact += many.rep.CompleteWrites()
	}
	total += many.rep.CompleteWrites()

	t.Note("decomposition is an accounting identity: component sums equal end-to-end "+
		"virtual latency exactly for %d/%d writes", exact, total)
	t.Note("the pipelined generation converts the stream's queueing share into overlap; " +
		"the congested all-to-one pays in busy/retransmit recovery instead")
	t.Note("series sampler: %d virtual-time samples at 500us over the pipelined stream run", pipeSamples)

	// Observatory perturbation: same run with and without the analyzer.
	// Virtual time must be bit-identical.
	plain := e18Stream(core.Classic(), false)
	analyzed := e18Stream(core.Classic(), true)
	if plain.mk == analyzed.mk && plain.quiesce == analyzed.quiesce {
		t.Note("virtual-time perturbation: zero — analyzed run is bit-identical in virtual time")
	} else {
		t.Note("virtual-time perturbation DETECTED: %v vs %v — the observatory must not alter the simulation",
			plain.mk, analyzed.mk)
	}
	return t
}
