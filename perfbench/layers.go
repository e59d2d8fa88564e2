package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/obs"
	"hpcvorx/internal/trace"
)

// kindCounter is the traced run's forward sink: it counts events by
// kind, and the data fragments handed to the channel service.
type kindCounter struct {
	kinds     [256]int
	chanFrags int
	total     int
}

func (c *kindCounter) TraceEvent(e trace.Event) {
	c.total++
	c.kinds[e.Kind]++
	if e.Kind == trace.KService && e.Lane == "svc/chan" {
		c.chanFrags++
	}
}

// traceRing bounds the tracer's own buffer during traced runs; the
// forward sinks see every event regardless.
const traceRing = 4096

// enableTrace turns the serial system's tracer on and forwards its
// events to sink.
func enableTrace(it *iteration, sink trace.Sink) {
	tr := it.tracer()
	tr.SetLimit(traceRing)
	tr.SetForward(sink)
	tr.Enable()
}

// perLayer is the traced run: every per-layer metric, measured from
// outside the program by timing calls into each layer's public
// functions, reading its stats and trace counters, and attributing a
// CPU profile to packages. It takes about budget.
func perLayer(p *plan, budget time.Duration) (*result, error) {
	res := newResult()
	msgs := float64(p.messages())
	tally := func(it *iteration) {
		res.Attempted += p.messages()
		res.Failed += check(p, it.rec)
	}
	phase := func(share float64) time.Time {
		return time.Now().Add(time.Duration(share * float64(budget)))
	}

	var speed hostSpeed
	if err := runMicro(res, &speed); err != nil {
		return nil, err
	}

	// Untraced runs of the workload as built; a sharded workload
	// alternates them with the same plan on the serial kernel.
	var builds, nsPerEvent, walls, serialWalls []float64
	var horizon, null, wakeups, drain []float64
	var last *iteration
	for n, end := 0, phase(0.25); n < 5 || time.Now().Before(end); n++ {
		speed.sample()
		it, err := runOnce(p, false, nil)
		if err != nil {
			return nil, err
		}
		tally(it)
		last = it
		builds = append(builds, ms(it.build))
		walls = append(walls, ms(it.run))
		nsPerEvent = append(nsPerEvent, float64(it.run.Nanoseconds())/float64(it.events()))
		if it.sh == nil {
			continue
		}
		st := it.sh.Group.SyncStats()
		horizon = append(horizon, float64(st.HorizonPublishes))
		null = append(null, float64(st.NullMessages))
		wakeups = append(wakeups, float64(st.Wakeups))
		drain = append(drain, st.AvgDrainRun())
		s, err := runOnce(p, true, nil)
		if err != nil {
			return nil, err
		}
		tally(s)
		serialWalls = append(serialWalls, ms(s.run))
	}
	res.set("core.build_ms", median(builds), "ms")
	res.set("sim.events_per_msg", float64(last.events())/msgs, "count")
	res.set("sim.host_ns_per_event", median(nsPerEvent), "ns")
	var cross, speedup float64
	if last.sh != nil {
		cross = float64(last.sh.Group.CrossPosts()) / msgs
		speedup = median(serialWalls) / median(walls)
	}
	res.set("sim.group.cross_posts_per_msg", cross, "count")
	res.set("sim.group.horizon_publishes", medianOrZero(horizon), "count")
	res.set("sim.group.null_messages", medianOrZero(null), "count")
	res.set("sim.group.wakeups", medianOrZero(wakeups), "count")
	res.set("sim.group.avg_drain_run", medianOrZero(drain), "count")
	res.set("sim.group.speedup_vs_serial", speedup, "ratio")

	fab := last.fabric()
	res.set("hpc.msgs_per_app_msg", float64(fab.MessagesSent)/msgs, "count")
	res.set("hpc.handoffs_per_msg", float64(fab.HandoffsOut)/msgs, "count")
	tot := last.m.Node(p.writers[0].dst).Kern.Totals()
	res.set("kern.sink_busy_frac", float64(tot[kern.CatUser]+tot[kern.CatSystem])/float64(last.makespan()), "ratio")

	var writeLat, openLat []float64
	for _, ws := range last.rec.writeLat {
		for _, d := range ws {
			writeLat = append(writeLat, d.Microseconds())
		}
	}
	for _, d := range last.rec.openLat {
		openLat = append(openLat, d.Microseconds())
	}
	res.set("channels.write_virt_us_p50", percentile(writeLat, 50), "us")
	res.set("channels.write_virt_us_p99", percentile(writeLat, 99), "us")
	res.set("objmgr.open_virt_us_p50", percentile(openLat, 50), "us")
	maxOpens, opens := 0, 0
	for _, n := range last.opens() {
		opens += n
		maxOpens = max(maxOpens, n)
	}
	res.set("objmgr.max_share", float64(maxOpens)/float64(opens), "ratio")

	// Tracing overhead: traced against untraced runs, alternating, on
	// the serial kernel (a sharded build keeps its tracers off).
	var plain, traced []float64
	for n, end := 0, phase(0.2); n < 5 || time.Now().Before(end); n++ {
		speed.sample()
		it, err := runOnce(p, true, nil)
		if err != nil {
			return nil, err
		}
		tally(it)
		plain = append(plain, ms(it.run))
		it, err = runOnce(p, true, func(it *iteration) { enableTrace(it, &kindCounter{}) })
		if err != nil {
			return nil, err
		}
		tally(it)
		traced = append(traced, ms(it.run))
	}
	res.set("trace.overhead_frac", median(traced)/median(plain)-1, "ratio")

	// One analyzed run: event-kind counts, trace counters and the
	// observatory's exact virtual-latency partition.
	kc, an := &kindCounter{}, obs.NewAnalyzer()
	it, err := runOnce(p, true, func(it *iteration) { enableTrace(it, obs.Tee(kc, an)) })
	if err != nil {
		return nil, err
	}
	tally(it)
	rep := an.Report()
	if err := rep.Check(); err != nil {
		return nil, err
	}
	if rep.CompleteWrites() != p.messages() {
		return nil, fmt.Errorf("%s: observatory saw %d complete writes of %d", p.name, rep.CompleteWrites(), p.messages())
	}
	counter := func(name string) float64 { return it.tracer().Metrics().Counter(name).V }
	res.set("trace.events_per_msg", float64(kc.total)/msgs, "count")
	res.set("hpc.blocked_per_msg", counter("hpc.blocked")/msgs, "count")
	res.set("hpc.wire_share", rep.Share(obs.CompWire), "ratio")
	res.set("hpc.queue_share", rep.Share(obs.CompQueue), "ratio")
	res.set("netif.coalesced_frac", counter("netif.intr.coalesced")/counter("hpc.delivered"), "ratio")
	res.set("netif.interrupt_share", rep.Share(obs.CompInterrupt), "ratio")
	res.set("channels.fragments_per_msg", float64(kc.kinds[trace.KFragment])/msgs, "count")
	res.set("channels.acks_per_msg", float64(kc.kinds[trace.KAck])/msgs, "count")
	res.set("channels.busy_per_msg", float64(kc.kinds[trace.KBusy])/msgs, "count")
	res.set("channels.retransmits_per_msg", float64(kc.kinds[trace.KRetransmit])/msgs, "count")
	res.set("channels.useful_frac", float64(fragments(p))/float64(kc.chanFrags), "ratio")
	res.set("channels.busy_share", rep.Share(obs.CompBusy), "ratio")
	res.set("channels.retransmit_share", rep.Share(obs.CompRetransmit), "ratio")

	// CPU profile of untraced runs: machines are built before the
	// profiler starts, so set-up stays out of the samples.
	counts := map[string]int64{}
	for end := phase(0.35); ; {
		batch := make([]*iteration, 0, 8)
		for len(batch) < cap(batch) {
			it, err := setupIteration(p, false)
			if err != nil {
				return nil, err
			}
			batch = append(batch, it)
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		for _, it := range batch {
			it.execute()
		}
		pprof.StopCPUProfile()
		for _, it := range batch {
			tally(it)
		}
		if err := attribute(buf.Bytes(), counts); err != nil {
			return nil, err
		}
		if time.Now().After(end) {
			break
		}
	}
	var samples int64
	for _, n := range counts {
		samples += n
	}
	for _, b := range cpuBuckets {
		res.set("host.cpu_share."+b, float64(counts[b])/float64(samples), "ratio")
	}
	// Host times read at the reference host speed, like the end-to-end
	// metrics.
	f := speed.factor()
	for name, m := range res.Metrics {
		if m.Unit == "ns" || name == "core.build_ms" {
			res.set(name, f*m.Value, m.Unit)
		}
	}
	res.set("host.calibration_ms", median(speed.passes), "ms")
	res.note = fmt.Sprintf("traced run: %d messages per iteration, %d CPU profile samples; host times scaled by %.4f",
		p.messages(), samples, f)
	return res, nil
}

// runOnce sets up one iteration, collects garbage outside the timed
// region, and runs it; prep, when non-nil, runs just before the run.
func runOnce(p *plan, serial bool, prep func(*iteration)) (*iteration, error) {
	it, err := setupIteration(p, serial)
	if err != nil {
		return nil, err
	}
	if prep != nil {
		prep(it)
	}
	runtime.GC()
	it.execute()
	return it, nil
}

// fragments is the number of hardware fragments the plan's messages
// need when each is sent once.
func fragments(p *plan) int {
	n := 0
	for _, w := range p.writers {
		for _, s := range w.sizes {
			n += (s + channels.MaxFragment - 1) / channels.MaxFragment
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
