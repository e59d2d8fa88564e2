package vorxbench

import (
	"fmt"

	"hpcvorx/internal/cemu"
	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/multicast"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/stub"
)

// Ablation experiments for the design choices DESIGN.md calls out:
// they vary one mechanism at a time and show why the system is built
// the way it is.

// A1SideBuffers varies the kernel side-buffer pool under many-to-one
// channel traffic: the paper's "many side buffers" make the
// busy/retransmit path rare; a small pool makes it constant.
func A1SideBuffers() *Table {
	t := &Table{
		ID:     "A1",
		Title:  "Ablation: kernel side-buffer pool under 6-to-1 channel traffic",
		Header: []string{"side buffers", "makespan (ms)", "busies", "retransmits"},
	}
	for _, bufs := range []int{2, 8, 64} {
		sys, err := core.Build(core.Config{Nodes: 7, Seed: 1})
		if err != nil {
			panic(err)
		}
		for _, m := range sys.Machines() {
			m.Chans.SetSideBuffers(bufs)
		}
		// Slow reader: senders race ahead into the side buffers.
		const senders, msgs = 6, 10
		var end sim.Time
		sink := sys.Node(0)
		sys.Spawn(sink, "sink", 0, func(sp *kern.Subprocess) {
			var chs []*chanRef
			for i := 1; i <= senders; i++ {
				chs = append(chs, &chanRef{sink.Chans.Open(sp, fmt.Sprintf("a1.%d", i), objmgr.OpenAny)})
			}
			for n := 0; n < senders*msgs; n++ {
				sp.Compute(sim.Microseconds(800)) // slow consumer
				if _, ok := chs[n%senders].ch.Read(sp); !ok {
					panic("a1 read")
				}
			}
			end = sp.Now()
		})
		for i := 1; i <= senders; i++ {
			i := i
			src := sys.Node(i)
			sys.Spawn(src, fmt.Sprintf("src%d", i), 0, func(sp *kern.Subprocess) {
				ch := src.Chans.Open(sp, fmt.Sprintf("a1.%d", i), objmgr.OpenAny)
				for m := 0; m < msgs; m++ {
					if err := ch.Write(sp, 800, nil); err != nil {
						panic(err)
					}
				}
			})
		}
		if err := sys.Run(); err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprint(bufs), fmt.Sprintf("%.1f", end.Sub(0).Milliseconds()),
			fmt.Sprint(sink.Chans.Busies), fmt.Sprint(sink.Chans.Retransmits))
	}
	t.Note("a starved pool forces busy/retransmit rounds; with many buffers the path never triggers")
	return t
}

// A2TreeFanout varies the download tree's fan-out. Fan-out 1 is a
// chain (no parallel forwarding); the paper chose 2; wider trees cost
// more per-node forwarding time per chunk.
func A2TreeFanout() *Table {
	t := &Table{
		ID:     "A2",
		Title:  "Ablation: download tree fan-out, 40 processes",
		Header: []string{"fan-out", "startup (s)"},
	}
	for _, f := range []int{1, 2, 4} {
		sys, err := core.Build(core.Config{Hosts: 1, Nodes: 40, Seed: 1})
		if err != nil {
			panic(err)
		}
		app := stub.LaunchTree(sys, sys.Host(0), sys.Nodes(), stub.DefaultImage(), f, nil)
		sys.RunFor(sim.Seconds(200))
		if !app.Ready() {
			panic(fmt.Sprintf("fanout %d did not complete", f))
		}
		t.AddRow(fmt.Sprint(f), secs(app.StartedAt.Seconds()))
		sys.Shutdown()
	}
	t.Note("per-node forwarding work scales with fan-out, depth with its inverse; in this cost model")
	t.Note("the chunk pipeline hides depth, so narrow trees win — fan-out 2 is a safe middle ground")
	return t
}

// A3FewReceivers compares the flow-controlled multicast primitive
// against issuing multiple channel writes for small receiver counts —
// the paper's advice for LAN-style servers (§4.2: "only to a few
// receivers ... with reasonable efficiency by issuing multiple
// writes").
func A3FewReceivers() *Table {
	t := &Table{
		ID:     "A3",
		Title:  "Ablation: multicast vs multiple writes, 1000-byte message",
		Header: []string{"receivers", "multicast (µs)", "multiple writes (µs)"},
	}
	for _, m := range []int{2, 4, 8} {
		mc := timeMulticast(m, 20)
		mw := timeMultiWrites(m, 20)
		t.AddRow(fmt.Sprint(m), us1(mc), us1(mw))
	}
	t.Note("multicast amortizes the sender's work; multiple writes are acceptable for few receivers")
	return t
}

func timeMulticast(members, rounds int) float64 {
	sys, err := core.Build(core.Config{Nodes: members + 1, Seed: 1})
	if err != nil {
		panic(err)
	}
	snd := multicast.NewSender(sys.Node(0).IF, sys.Mgr, "a3")
	var start, end sim.Time
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		for i := 0; i < members; i++ {
			snd.Accept(sp)
		}
		start = sp.Now()
		for r := 0; r < rounds; r++ {
			if err := snd.Write(sp, 1000, nil); err != nil {
				panic(err)
			}
		}
		end = sp.Now()
	})
	for i := 1; i <= members; i++ {
		i := i
		m := sys.Node(i)
		sys.Spawn(m, fmt.Sprintf("m%d", i), 0, func(sp *kern.Subprocess) {
			r := multicast.Join(m.IF, sys.Mgr, sp, "a3")
			for j := 0; j < rounds; j++ {
				r.Read(sp)
			}
		})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	return end.Sub(start).Microseconds() / float64(rounds)
}

func timeMultiWrites(members, rounds int) float64 {
	sys, err := core.Build(core.Config{Nodes: members + 1, Seed: 1})
	if err != nil {
		panic(err)
	}
	var start, end sim.Time
	w := sys.Node(0)
	sys.Spawn(w, "w", 0, func(sp *kern.Subprocess) {
		var chs []*chanRef
		for i := 1; i <= members; i++ {
			chs = append(chs, &chanRef{w.Chans.Open(sp, fmt.Sprintf("a3w.%d", i), objmgr.OpenAny)})
		}
		start = sp.Now()
		for r := 0; r < rounds; r++ {
			for _, c := range chs {
				if err := c.ch.Write(sp, 1000, nil); err != nil {
					panic(err)
				}
			}
		}
		end = sp.Now()
	})
	for i := 1; i <= members; i++ {
		i := i
		m := sys.Node(i)
		sys.Spawn(m, fmt.Sprintf("r%d", i), 0, func(sp *kern.Subprocess) {
			ch := m.Chans.Open(sp, fmt.Sprintf("a3w.%d", i), objmgr.OpenAny)
			for j := 0; j < rounds; j++ {
				ch.Read(sp)
			}
		})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	return end.Sub(start).Microseconds() / float64(rounds)
}

// A4TopologyTransparency measures channel latency within one cluster
// versus across the full diameter of the 1024-node hypercube: the
// software overhead dwarfs the per-hop hardware latency, which is why
// "applications programmers need not be concerned with the hardware
// topology" (paper §1).
func A4TopologyTransparency() *Table {
	t := &Table{
		ID:     "A4",
		Title:  "Ablation: topology transparency — 4-byte channel latency vs hop count",
		Header: []string{"placement", "cluster hops", "latency (µs)", "added by hardware"},
	}
	sys, err := core.Build(core.Config{Nodes: 1024, Seed: 1})
	if err != nil {
		panic(err)
	}
	// Same cluster: nodes 0..3 share cluster 0.
	same := measurePair(sys, 0, 1, "a4same")
	// Full diameter: endpoint of cluster 0 to endpoint of cluster 255.
	sys2, err := core.Build(core.Config{Nodes: 1024, Seed: 1})
	if err != nil {
		panic(err)
	}
	far := measurePair(sys2, 0, 1023, "a4far")
	hops := sys2.Topo.Hops(sys2.Node(0).EP, sys2.Node(1023).EP)
	t.AddRow("same cluster", "0", us1(same), "-")
	t.AddRow("cube corner to corner", fmt.Sprint(hops), us1(far), fmt.Sprintf("+%.1f µs (%.1f%%)",
		far-same, 100*(far-same)/same))
	t.Note("per-hop hardware latency is tiny next to the ~300 µs software path")
	return t
}

func measurePair(sys *core.System, a, b int, name string) float64 {
	const rounds = 200
	var start, end sim.Time
	na, nb := sys.Node(a), sys.Node(b)
	sys.Spawn(na, "w", 0, func(sp *kern.Subprocess) {
		ch := na.Chans.Open(sp, name, objmgr.OpenAny)
		start = sp.Now()
		for i := 0; i < rounds; i++ {
			if err := ch.Write(sp, 4, nil); err != nil {
				panic(err)
			}
		}
		end = sp.Now()
	})
	sys.Spawn(nb, "r", 0, func(sp *kern.Subprocess) {
		ch := nb.Chans.Open(sp, name, objmgr.OpenAny)
		for i := 0; i < rounds; i++ {
			ch.Read(sp)
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	return end.Sub(start).Microseconds() / rounds
}

// chanRef keeps slices of channel ends tidy inside closures.
type chanRef struct{ ch *channels.Channel }

// A5WindowedChannels implements the improvement §4.1 suggests ("This
// result suggests that we should consider the use of a sliding-window
// protocol for channels") and measures what it buys: the kernel keeps
// k writes in flight per channel instead of one.
func A5WindowedChannels() *Table {
	t := &Table{
		ID:     "A5",
		Title:  "Ablation: kernel-level sliding window for channels (paper §4.1's suggestion)",
		Header: []string{"window", "4B (µs/msg)", "1024B (µs/msg)"},
	}
	measure := func(size, window int) float64 {
		sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
		if err != nil {
			panic(err)
		}
		const rounds = 500
		var start, end sim.Time
		sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
			ch := sys.Node(0).Chans.Open(sp, "a5", objmgr.OpenAny)
			ch.SetWindow(window)
			start = sp.Now()
			for i := 0; i < rounds; i++ {
				if err := ch.Write(sp, size, nil); err != nil {
					panic(err)
				}
			}
			end = sp.Now()
		})
		sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
			ch := sys.Node(1).Chans.Open(sp, "a5", objmgr.OpenAny)
			for i := 0; i < rounds; i++ {
				ch.Read(sp)
			}
		})
		if err := sys.Run(); err != nil {
			panic(err)
		}
		return end.Sub(start).Microseconds() / rounds
	}
	for _, w := range []int{1, 2, 4, 8} {
		t.AddRow(fmt.Sprint(w), us1(measure(4, w)), us1(measure(1024, w)))
	}
	t.Note("window 1 is Table 2's stop-and-wait; compare the user-level protocol's Table 1")
	t.Note("small messages gain ~2x (latency-bound); 1024B is receiver-CPU-bound, so extra")
	t.Note("in-flight writes only add busy/retransmit churn once the side buffers fill")
	return t
}

// A6SpiceTransport compares the SPICE solve over channels vs
// user-defined objects at several processor counts — the application-
// level consequence of E3's latency gap.
func A6SpiceTransport() *Table {
	t := &Table{
		ID:     "A6",
		Title:  "Ablation: SPICE solve transport — channels vs user-defined objects",
		Header: []string{"procs", "channels (ms)", "udo (ms)", "udo speedup"},
	}
	for _, p := range []int{2, 4, 8} {
		ch, udoMS := SpiceComparison(16, p, 40)
		t.AddRow(fmt.Sprint(p), fmt.Sprintf("%.1f", ch), fmt.Sprintf("%.1f", udoMS),
			fmt.Sprintf("%.2fx", ch/udoMS))
	}
	t.Note("fine-grain boundary exchange amplifies the per-message fixed-cost difference")
	return t
}

// A7CEMUScaling measures the CEMU-style timing simulator's speedup
// with processor count.
func A7CEMUScaling() *Table {
	t := &Table{
		ID:     "A7",
		Title:  "Ablation: CEMU timing-simulation scaling (64 gates, 12 steps, window 4)",
		Header: []string{"procs", "elapsed (ms)", "boundary msgs", "speedup"},
	}
	circuit := cemu.RandomCircuit(6, 64, 5)
	initial := make([]bool, circuit.Signals)
	var base float64
	for _, p := range []int{1, 2, 4, 8} {
		sys, err := core.Build(core.Config{Nodes: p, Seed: 1})
		if err != nil {
			panic(err)
		}
		res, err := cemu.Run(sys, circuit, initial, 12, p, 4)
		if err != nil {
			panic(err)
		}
		ms := res.Elapsed.Milliseconds()
		if p == 1 {
			base = ms
		}
		t.AddRow(fmt.Sprint(p), fmt.Sprintf("%.1f", ms), fmt.Sprint(res.PairMessages),
			fmt.Sprintf("%.2fx", base/ms))
	}
	t.Note("boundary traffic grows with the cut size, capping the speedup — the load-balance story §6.2's oscilloscope exists to diagnose")
	return t
}

// F2Scaling backs §1's scalability claim ("The system can easily be
// expanded to more than a thousand nodes by replicating the
// interconnect hardware"): the same operations at machine sizes from
// one cluster to the 1024-node construction.
func F2Scaling() *Table {
	t := &Table{
		ID:    "F2",
		Title: "Scaling from one cluster to a thousand nodes (paper §1)",
		Header: []string{"nodes", "clusters", "diameter",
			"4B latency, worst pair (µs)", "tree boot (s)", "open storm (ms)"},
	}
	for _, n := range []int{10, 70, 254, 1022} {
		// +1 host; sizes chosen so hosts+nodes fill clusters evenly.
		sys, err := core.Build(core.Config{Hosts: 1, Nodes: n, Seed: 1})
		if err != nil {
			panic(err)
		}
		lat := measurePair(sys, 0, n-1, "f2lat")

		sys2, err := core.Build(core.Config{Hosts: 1, Nodes: n, Seed: 1})
		if err != nil {
			panic(err)
		}
		app := stub.LaunchTree(sys2, sys2.Host(0), sys2.Nodes(), stub.DefaultImage(), 2, nil)
		sys2.RunFor(sim.Seconds(300))
		if !app.Ready() {
			panic("f2 boot incomplete")
		}
		boot := app.StartedAt.Seconds()
		sys2.Shutdown()

		sys3, err := core.Build(core.Config{Hosts: 1, Nodes: n, Seed: 1})
		if err != nil {
			panic(err)
		}
		// Fixed-size storm regardless of machine size (clamped on the
		// single-cluster machine): up to 12 pairs.
		pairs := 12
		if n/2 < pairs {
			pairs = n / 2
		}
		storm := stormOnFirstPairs(sys3, pairs, 1)

		t.AddRow(fmt.Sprint(n), fmt.Sprint(sys.Topo.Clusters()), fmt.Sprint(sys.Topo.Diameter()),
			us1(lat), secs(boot), fmt.Sprintf("%.2f", storm.Milliseconds()))
	}
	t.Note("latency grows only by per-hop hardware time; boot and rendezvous stay sublinear —")
	t.Note("the decentralized designs §3 argues for are what make the large sizes usable")
	return t
}

// stormOnFirstPairs opens `opens` channels between each of `pairs`
// node pairs and returns the makespan.
func stormOnFirstPairs(sys *core.System, pairs, opens int) sim.Duration {
	var start, end sim.Time
	first := true
	for pr := 0; pr < pairs; pr++ {
		for side := 0; side < 2; side++ {
			m := sys.Nodes()[2*pr+side]
			pr := pr
			sys.Spawn(m, fmt.Sprintf("f2storm%d.%d", pr, side), 0, func(sp *kern.Subprocess) {
				if first {
					first = false
					start = sp.Now()
				}
				for i := 0; i < opens; i++ {
					m.Chans.Open(sp, fmt.Sprintf("f2.%d.%d", pr, i), objmgr.OpenAny)
				}
				if sp.Now() > end {
					end = sp.Now()
				}
			})
		}
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	return end.Sub(start)
}
