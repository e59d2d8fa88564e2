package vorxbench

import (
	"fmt"
	"math/rand"

	"hpcvorx/internal/bitmap"
	"hpcvorx/internal/core"
	"hpcvorx/internal/fft"
	"hpcvorx/internal/flowctl"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
	"hpcvorx/internal/spice"
	"hpcvorx/internal/stub"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/udo"
	"hpcvorx/internal/workload"
)

// Table1Sizes and Table1Buffers are the paper's sweep axes.
var (
	Table1Sizes   = []int{4, 64, 256, 1024}
	Table1Buffers = []int{1, 2, 4, 8, 16, 32, 64}
	// Table1Paper holds the published values, [buffer][size] µs/msg.
	Table1Paper = map[int]map[int]float64{
		1:  {4: 414, 64: 451, 256: 574, 1024: 1071},
		2:  {4: 290, 64: 317, 256: 412, 1024: 787},
		4:  {4: 227, 64: 251, 256: 330, 1024: 644},
		8:  {4: 196, 64: 218, 256: 289, 1024: 573},
		16: {4: 179, 64: 200, 256: 267, 1024: 535},
		32: {4: 172, 64: 192, 256: 257, 1024: 518},
		64: {4: 164, 64: 184, 256: 248, 1024: 504},
	}
	// Table2Paper holds the published channel latencies by size.
	Table2Paper = map[int]float64{4: 303, 64: 341, 256: 474, 1024: 997}
)

// WindowLatency measures the Table 1 benchmark for one (size, buffers)
// point: 1000 messages, elapsed at the sender divided by the count.
func WindowLatency(size, buffers, rounds int) float64 {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	ws := udo.NewWindowSender(sys.Node(0).IF, "t1", sys.Node(1).EP, size)
	wr := udo.NewWindowReceiver(sys.Node(1).IF, "t1", sys.Node(0).EP, size, buffers)
	var start, end sim.Time
	sys.Spawn(sys.Node(0), "sender", 0, func(sp *kern.Subprocess) {
		sp.SleepFor(sim.Milliseconds(2))
		start = sp.Now()
		for i := 0; i < rounds; i++ {
			ws.Send(sp, nil)
		}
		end = sp.Now()
	})
	sys.Spawn(sys.Node(1), "receiver", 0, func(sp *kern.Subprocess) {
		wr.Start(sp)
		for i := 0; i < rounds; i++ {
			wr.Recv(sp)
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	return end.Sub(start).Microseconds() / float64(rounds)
}

// Table1 reproduces "Message Latency for Reader-Active Communications
// Protocol".
func Table1() *Table {
	t := &Table{
		ID:    "T1",
		Title: "Message latency for reader-active (sliding-window) protocol, µs/msg",
		Header: []string{"buffers",
			"4B", "4B(paper)", "64B", "64B(paper)",
			"256B", "256B(paper)", "1024B", "1024B(paper)"},
	}
	for _, k := range Table1Buffers {
		row := []string{fmt.Sprint(k)}
		for _, size := range Table1Sizes {
			got := WindowLatency(size, k, 1000)
			row = append(row, us1(got), us(Table1Paper[k][size]))
		}
		t.AddRow(row...)
	}
	t.Note("1000 messages per point, elapsed measured at the sender, as in the paper")
	return t
}

// ChannelLatency measures the Table 2 benchmark for one size.
func ChannelLatency(size, rounds int) float64 {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	return workload.ChannelLatency(sys, sys.Node(0), sys.Node(1), size, rounds)
}

// Table2 reproduces "Message Latency for Channel Communications".
func Table2() *Table {
	t := &Table{
		ID:     "T2",
		Title:  "Message latency for channel communications (stop-and-wait), µs/msg",
		Header: []string{"size", "measured", "paper"},
	}
	for _, size := range Table1Sizes {
		got := ChannelLatency(size, 1000)
		t.AddRow(fmt.Sprintf("%dB", size), us1(got), us(Table2Paper[size]))
	}
	return t
}

// Figure1 reproduces the conceptual system diagram and the paper's
// flagship interconnect constructions.
func Figure1() *Table {
	t := &Table{
		ID:     "F1",
		Title:  "A typical local area multicomputer system (topology constructions)",
		Header: []string{"construction", "clusters", "cube-dim", "endpoints", "diameter", "ports-used/cluster"},
	}
	add := func(label string, tp *topo.Topology) {
		max := 0
		for c := 0; c < tp.Clusters(); c++ {
			if u := tp.PortsUsed(topo.ClusterID(c)); u > max {
				max = u
			}
		}
		t.AddRow(label, fmt.Sprint(tp.Clusters()), fmt.Sprint(tp.Dimension()),
			fmt.Sprint(tp.Endpoints()), fmt.Sprint(tp.Diameter()), fmt.Sprint(max))
	}
	single, _ := topo.SingleCluster(12)
	add("single cluster (12 ports)", single)
	paper1988, _ := topo.IncompleteHypercube(20, 4) // 10 hosts + 70 nodes = 80 endpoints
	add("1988 installation (10 hosts + 70 nodes)", paper1988)
	big, _ := topo.IncompleteHypercube(256, 4)
	add("1024-node construction (paper §1)", big)
	odd, _ := topo.IncompleteHypercube(37, 4)
	add("incomplete: 37 clusters", odd)
	t.Note("paper §1: 1024 nodes from 256 clusters, 8 cube ports + 4 node ports each")
	return t
}

// E1ChannelThroughput reproduces the §4 intro numbers: 303 µs
// end-to-end latency and 1027 kbyte/s at 1024 bytes.
func E1ChannelThroughput() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Channel latency and throughput (paper §4)",
		Header: []string{"metric", "measured", "paper"},
	}
	lat := ChannelLatency(4, 1000)
	thr := 1024.0 / ChannelLatency(1024, 1000) * 1000 // kbyte/s
	t.AddRow("4-byte latency (µs)", us1(lat), "303")
	t.AddRow("1024-byte rate (kbyte/s)", us(thr), "1027")
	return t
}

// E2Download reproduces §3.3: 12 s per-process download vs 2 s tree
// download for 70 processes, with a node-count sweep.
func E2Download() *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Download and start N processes (paper §3.3)",
		Header: []string{"processes", "per-process stubs (s)", "tree download (s)", "paper"},
	}
	run := func(n int, mode stub.Mode) float64 {
		sys, err := core.Build(core.Config{Hosts: 1, Nodes: n, Seed: 1})
		if err != nil {
			panic(err)
		}
		app := stub.Launch(sys, sys.Host(0), sys.Nodes(), stub.DefaultImage(), mode, nil)
		sys.RunFor(sim.Seconds(120))
		if !app.Ready() {
			panic("download did not complete")
		}
		sys.Shutdown()
		return app.StartedAt.Seconds()
	}
	for _, n := range []int{10, 40, 70} {
		paper := ""
		if n == 70 {
			paper = "12 vs 2"
		}
		t.AddRow(fmt.Sprint(n), secs(run(n, stub.PerProcess)), secs(run(n, stub.SharedTree)), paper)
	}
	t.Note("per-process time grows linearly with N (host-centralized work); the tree pipeline does not")
	return t
}

// E3UDOLatency reproduces the SPICE result of §4.1: 60 µs software
// latency for 64-byte messages with direct hardware access.
func E3UDOLatency() *Table {
	t := &Table{
		ID:     "E3",
		Title:  "User-defined object latency, direct access, no protocol (paper §4.1)",
		Header: []string{"size", "software latency (µs)", "paper"},
	}
	for _, size := range []int{4, 64, 256} {
		sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
		if err != nil {
			panic(err)
		}
		tx := udo.New(sys.Node(0).IF, "e3", true)
		rx := udo.New(sys.Node(1).IF, "e3", true)
		var t0, t1 sim.Time
		sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
			tx.Send(sp, sys.Node(1).EP, size, nil) // warm-up
			sp.SleepFor(sim.Milliseconds(1))
			t0 = sp.Now()
			tx.Send(sp, sys.Node(1).EP, size, nil)
		})
		sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
			rx.Recv(sp)
			rx.Recv(sp)
			t1 = sp.Now()
		})
		if err := sys.Run(); err != nil {
			panic(err)
		}
		wire := 2 * (sys.Costs.HopFixed + sys.Costs.WireTime(size+udo.RawHeader))
		sw := t1.Sub(t0) - wire
		paper := ""
		if size == 64 {
			paper = "60"
		}
		t.AddRow(fmt.Sprintf("%dB", size), us1(sw.Microseconds()), paper)
	}
	return t
}

// E4Bitmap reproduces the real-time bitmap experiment of §4.1.
func E4Bitmap() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Real-time bitmap transmission to a workstation (paper §4.1)",
		Header: []string{"metric", "measured", "paper"},
	}
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 1, Seed: 1})
	if err != nil {
		panic(err)
	}
	res, err := bitmap.Stream(sys, sys.Node(0), sys.Host(0), bitmap.Width, bitmap.Height, 10)
	if err != nil {
		panic(err)
	}
	t.AddRow("bandwidth (Mbyte/s)", fmt.Sprintf("%.2f", res.MBytesPerSec), "3.2")
	t.AddRow("900x900 mono refresh (Hz)", fmt.Sprintf("%.1f", res.FPS), "30")
	return t
}

// E5FFT reproduces the 2DFFT distribution comparison of §4.2.
func E5FFT() *Table {
	t := &Table{
		ID:    "E5",
		Title: "2DFFT redistribution: multicast vs per-receiver messages (paper §4.2)",
		Header: []string{"n", "procs", "strategy", "numbers read/proc", "paper(n=256,P=256)",
			"elapsed (ms)", "comm (ms)"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct{ n, p int }{{64, 4}, {64, 8}, {128, 8}, {128, 16}} {
		in := fft.NewMatrix(cfg.n)
		for i := range in.Data {
			in.Data[i] = complex(rng.Float64(), rng.Float64())
		}
		for _, strat := range []fft.Strategy{fft.Multicast, fft.Scatter} {
			sys, err := core.Build(core.Config{Nodes: cfg.p, Seed: 1})
			if err != nil {
				panic(err)
			}
			res, _, err := fft.Run2DFFT(sys, in, cfg.p, strat)
			if err != nil {
				panic(err)
			}
			paper := ""
			if strat == fft.Multicast {
				paper = "65536"
			} else {
				paper = "256"
			}
			comm := res.Elapsed - res.IdealCompute
			t.AddRow(fmt.Sprint(cfg.n), fmt.Sprint(cfg.p), strat.String(),
				fmt.Sprint(res.NumbersRead[0]), paper,
				fmt.Sprintf("%.1f", res.Elapsed.Milliseconds()),
				fmt.Sprintf("%.1f", comm.Milliseconds()))
		}
	}
	t.Note("multicast reads grow ~P-fold per processor; per-receiver messages carry only what is needed")
	return t
}

// E6SNETFlowControl reproduces §2: S/NET many-to-one overflow under
// the three recovery schemes, and the HPC hardware flow control.
func E6SNETFlowControl() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "Many-to-one flow control: S/NET schemes vs HPC hardware (paper §2)",
		Header: []string{"scheme", "workload", "delivered", "offered", "makespan (ms)", "paper's verdict"},
	}
	costs := m68k.DefaultCosts()
	runSNET := func(strategy func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy,
		senders, msgs, size int, horizon sim.Duration) (int, sim.Time) {
		k := sim.NewKernel(7)
		nw := snet.NewNetwork(k, costs, senders+1)
		s := strategy(k, nw)
		delivered := 0
		if res, ok := s.(*flowctl.Reservation); ok {
			res.SetDeliver(0, func(m snet.Message) { delivered++ })
		} else {
			nw.Station(0).SetDeliver(func(m snet.Message) { delivered++ })
			nw.Station(0).StartKernel()
		}
		var last sim.Time
		for i := 1; i <= senders; i++ {
			i := i
			k.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
				for j := 0; j < msgs; j++ {
					s.Send(p, nw.Station(i), 0, size, nil)
				}
				last = p.Now()
			})
		}
		k.RunFor(horizon)
		k.Shutdown()
		return delivered, last
	}

	var last sim.Time
	d, _ := runSNET(func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy { return &flowctl.SpinRetry{} },
		6, 20, 1000, sim.Seconds(2))
	t.AddRow("S/NET spin-retry", "6x20 msgs, 1000B", fmt.Sprint(d), "120", "-", "lockout: messages never received")

	d, _ = runSNET(func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy { return &flowctl.SpinRetry{} },
		12, 1, 150, sim.Seconds(2))
	t.AddRow("S/NET spin-retry", "12x1 msgs, 150B", fmt.Sprint(d), "12", "-", "fits the 2048B fifo: OK")

	d, last = runSNET(func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy {
		return &flowctl.RandomBackoff{Max: sim.Milliseconds(3)}
	}, 6, 20, 1000, sim.Seconds(8))
	t.AddRow("S/NET random backoff", "6x20 msgs, 1000B", fmt.Sprint(d), "120",
		fmt.Sprintf("%.1f", last.Sub(0).Milliseconds()), "works, at the timeout rate")

	d, last = runSNET(func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy {
		return flowctl.NewReservation(k, nw)
	}, 6, 20, 1000, sim.Seconds(8))
	t.AddRow("S/NET reservation", "6x20 msgs, 1000B", fmt.Sprint(d), "120",
		fmt.Sprintf("%.1f", last.Sub(0).Milliseconds()), "no overflow; taxes every message")

	// HPC: hardware flow control, channels on top.
	sys, err := core.Build(core.Config{Nodes: 7, Seed: 1})
	if err != nil {
		panic(err)
	}
	mk := workload.ManyToOne(sys, 1000, 20)
	t.AddRow("HPC hardware", "6x20 msgs, 1000B", "120", "120",
		fmt.Sprintf("%.1f", mk.Milliseconds()), "loss impossible, fair, no deadlock")
	return t
}

// E7Structuring reproduces §5: the 80 µs context switch and the
// cheaper program-structuring techniques.
func E7Structuring() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Program structuring overheads (paper §5)",
		Header: []string{"technique", "per-event overhead (µs)", "paper"},
	}
	costs := m68k.DefaultCosts()

	// Subprocess handoff via semaphores.
	{
		k := sim.NewKernel(1)
		n := kern.NewNode(k, costs, "n")
		const rounds = 200
		semA := n.NewSemaphore("a", 0)
		semB := n.NewSemaphore("b", 0)
		var start, end sim.Time
		n.SpawnSubprocess("ping", 0, func(sp *kern.Subprocess) {
			start = sp.Now()
			for i := 0; i < rounds; i++ {
				semA.V(sp)
				semB.P(sp)
			}
			end = sp.Now()
		})
		n.SpawnSubprocess("pong", 0, func(sp *kern.Subprocess) {
			for i := 0; i < rounds; i++ {
				semA.P(sp)
				semB.V(sp)
			}
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
		perSwitch := end.Sub(start).Microseconds() / (2 * rounds)
		t.AddRow("subprocess context switch", us1(perSwitch), "80 (plus semaphores)")
	}

	// Coroutine switch.
	{
		k := sim.NewKernel(1)
		n := kern.NewNode(k, costs, "n")
		const rounds = 200
		var elapsed sim.Duration
		n.SpawnSubprocess("host", 0, func(sp *kern.Subprocess) {
			g := kern.NewCoroutineGroup(sp)
			for c := 0; c < 2; c++ {
				g.Add(func(co *kern.Coroutine) {
					for i := 0; i < rounds; i++ {
						co.Yield()
					}
				})
			}
			s := sp.Now()
			g.Run()
			elapsed = sp.Now().Sub(s)
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
		t.AddRow("coroutine switch", us1(elapsed.Microseconds()/(2*rounds)), "much less than 80")
	}

	// Interrupt-level programming: per-event cost is the interrupt
	// entry plus handler, with no register image to restore.
	{
		k := sim.NewKernel(1)
		n := kern.NewNode(k, costs, "n")
		const events = 200
		served := 0
		for i := 0; i < events; i++ {
			k.After(sim.Duration(i)*sim.Microseconds(200), func() {
				n.Interrupt(sim.Microseconds(5), func() { served++ })
			})
		}
		if err := k.Run(); err != nil {
			panic(err)
		}
		tot := n.Totals()
		t.AddRow("interrupt-level event", us1(tot[kern.CatSystem].Microseconds()/events),
			"no save/restore overhead")
	}
	return t
}

// E8OpenStorm reproduces §3.2: channel-open storm under the Meglos
// centralized manager vs the VORX distributed object managers.
func E8OpenStorm() *Table {
	t := &Table{
		ID:    "E8",
		Title: "Channel-open storm: centralized vs distributed object manager (paper §3.2)",
		Header: []string{"nodes", "manager", "opens", "elapsed (ms)",
			"max opens on one manager"},
	}
	for _, n := range []int{8, 16, 32} {
		for _, central := range []bool{true, false} {
			sys, err := core.Build(core.Config{Hosts: 1, Nodes: n, CentralizedManager: central, Seed: 1})
			if err != nil {
				panic(err)
			}
			res := workload.OpenStorm(sys, 6)
			label := "distributed"
			if central {
				label = "centralized"
			}
			t.AddRow(fmt.Sprint(n), label, fmt.Sprint(res.Opens),
				fmt.Sprintf("%.2f", res.Elapsed.Milliseconds()), fmt.Sprint(res.MaxPerManager))
		}
	}
	t.Note("distributed hashing spreads opens over as many managers as nodes, removing the bottleneck")
	return t
}

// E9Allocation demonstrates §3.1's allocation-policy trade-offs.
func E9Allocation() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Processor allocation policies (paper §3.1)",
		Header: []string{"scenario", "Meglos (allocate-at-run)", "VORX (allocate-before-run)"},
	}
	k := sim.NewKernel(1)
	mg := resmgr.NewMeglos(8)
	vx := resmgr.NewVORX(k, 8)

	// Scenario: run, finish, recompile, rerun while a rival grabs all.
	app, _ := mg.StartApp(8, true)
	mg.EndApp(app)
	mine, _ := vx.Allocate("alice", 8)
	_, _ = mg.StartApp(8, true)
	_, bobErr := vx.Allocate("bob", 1)
	_, rerunErr := mg.StartApp(8, true)
	rerunVORX := len(vx.Owned("alice")) == 8

	t.AddRow("rival grabs processors during recompile",
		fmt.Sprintf("rerun fails: %v", rerunErr),
		fmt.Sprintf("rival refused (%v); rerun OK: %v", bobErr != nil, rerunVORX))

	// Scenario: user forgets to free.
	owners := vx.ForceFree(mine)
	t.AddRow("user forgets to free",
		"n/a (freed automatically at exit)",
		fmt.Sprintf("force-free reclaims from %v (use carefully)", owners))
	return t
}

// spiceComparison is exported for the benchmarks: UDO vs channels
// solve time (supporting E3's story).
func SpiceComparison(gridN, procs, iters int) (chMS, udoMS float64) {
	run := func(tr spice.Transport) float64 {
		sys, err := core.Build(core.Config{Nodes: procs, Seed: 1})
		if err != nil {
			panic(err)
		}
		g := spice.NewGrid(gridN)
		res, _, err := spice.Solve(sys, g, procs, iters, tr)
		if err != nil {
			panic(err)
		}
		return res.Elapsed.Milliseconds()
	}
	return run(spice.Channels), run(spice.UDO)
}
