// Benchmarks regenerating the paper's evaluation. Each benchmark runs
// the corresponding experiment's workload once per iteration on a
// fresh simulated machine and reports the simulated-time metric the
// paper published (sim-µs/msg, sim-seconds, sim-MB/s, ...) alongside
// Go's wall-clock ns/op. The full sweeps — every row of every table —
// are produced by cmd/benchtables and recorded in EXPERIMENTS.md.
package hpcvorx_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hpcvorx/internal/bitmap"
	"hpcvorx/internal/cemu"
	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/fft"
	"hpcvorx/internal/flowctl"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/linda"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/rapport"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
	"hpcvorx/internal/spice"
	"hpcvorx/internal/stub"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/udo"
	"hpcvorx/internal/vorxbench"
	"hpcvorx/internal/workload"
)

// BenchmarkTable1SlidingWindow regenerates Table 1 anchor points:
// reader-active sliding-window latency by buffer count and size.
func BenchmarkTable1SlidingWindow(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		for _, size := range []int{4, 1024} {
			b.Run(fmt.Sprintf("buffers=%d/size=%d", k, size), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					us = vorxbench.WindowLatency(size, k, 1000)
				}
				b.ReportMetric(us, "sim-µs/msg")
				b.ReportMetric(vorxbench.Table1Paper[k][size], "paper-µs/msg")
			})
		}
	}
}

// BenchmarkTable2Channels regenerates Table 2: channel stop-and-wait
// latency by message size.
func BenchmarkTable2Channels(b *testing.B) {
	for _, size := range []int{4, 64, 256, 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				us = vorxbench.ChannelLatency(size, 1000)
			}
			b.ReportMetric(us, "sim-µs/msg")
			b.ReportMetric(vorxbench.Table2Paper[size], "paper-µs/msg")
		})
	}
}

// BenchmarkChannelThroughput regenerates E1: 1027 kbyte/s at 1024 B.
func BenchmarkChannelThroughput(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = 1024.0 / vorxbench.ChannelLatency(1024, 1000) * 1000
	}
	b.ReportMetric(rate, "sim-kB/s")
	b.ReportMetric(1027, "paper-kB/s")
}

// BenchmarkDownload regenerates E2: 12 s per-process vs 2 s tree for
// 70 processes.
func BenchmarkDownload(b *testing.B) {
	for _, mode := range []stub.Mode{stub.PerProcess, stub.SharedTree} {
		b.Run(mode.String(), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Config{Hosts: 1, Nodes: 70, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				app := stub.Launch(sys, sys.Host(0), sys.Nodes(), stub.DefaultImage(), mode, nil)
				sys.RunFor(sim.Seconds(120))
				if !app.Ready() {
					b.Fatal("download incomplete")
				}
				secs = app.StartedAt.Seconds()
				sys.Shutdown()
			}
			b.ReportMetric(secs, "sim-seconds")
		})
	}
}

// BenchmarkUDODirect regenerates E3: 60 µs software latency at 64 B.
func BenchmarkUDODirect(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		tb := vorxbench.E3UDOLatency()
		for _, row := range tb.Rows {
			if row[0] == "64B" {
				fmt.Sscanf(row[1], "%f", &us)
			}
		}
	}
	b.ReportMetric(us, "sim-µs")
	b.ReportMetric(60, "paper-µs")
}

// BenchmarkBitmap regenerates E4: 3.2 Mbyte/s bitmap streaming.
func BenchmarkBitmap(b *testing.B) {
	var mbps, fps float64
	for i := 0; i < b.N; i++ {
		sys, err := core.Build(core.Config{Hosts: 1, Nodes: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := bitmap.Stream(sys, sys.Node(0), sys.Host(0), bitmap.Width, bitmap.Height, 10)
		if err != nil {
			b.Fatal(err)
		}
		mbps, fps = res.MBytesPerSec, res.FPS
	}
	b.ReportMetric(mbps, "sim-MB/s")
	b.ReportMetric(fps, "sim-fps")
}

// BenchmarkFFT2DDistribution regenerates E5: multicast vs scatter
// redistribution in the distributed 2DFFT.
func BenchmarkFFT2DDistribution(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := fft.NewMatrix(64)
	for i := range in.Data {
		in.Data[i] = complex(rng.Float64(), rng.Float64())
	}
	for _, strat := range []fft.Strategy{fft.Multicast, fft.Scatter} {
		b.Run(strat.String(), func(b *testing.B) {
			var ms float64
			var reads int64
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Config{Nodes: 8, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, _, err := fft.Run2DFFT(sys, in, 8, strat)
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Milliseconds()
				reads = res.NumbersRead[0]
			}
			b.ReportMetric(ms, "sim-ms")
			b.ReportMetric(float64(reads), "numbers-read/proc")
		})
	}
}

// BenchmarkSNETFlowControl regenerates E6: the S/NET recovery schemes
// and the HPC under many-to-one load.
func BenchmarkSNETFlowControl(b *testing.B) {
	costs := m68k.DefaultCosts()
	run := func(b *testing.B, mk func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy) (int, float64) {
		k := sim.NewKernel(7)
		nw := snet.NewNetwork(k, costs, 7)
		strat := mk(k, nw)
		delivered := 0
		if res, ok := strat.(*flowctl.Reservation); ok {
			res.SetDeliver(0, func(m snet.Message) { delivered++ })
		} else {
			nw.Station(0).SetDeliver(func(m snet.Message) { delivered++ })
			nw.Station(0).StartKernel()
		}
		var last sim.Time
		for i := 1; i <= 6; i++ {
			i := i
			k.Spawn(fmt.Sprint("s", i), func(p *sim.Proc) {
				for j := 0; j < 10; j++ {
					strat.Send(p, nw.Station(i), 0, 1000, nil)
				}
				last = p.Now()
			})
		}
		k.RunFor(sim.Seconds(4))
		k.Shutdown()
		return delivered, last.Sub(0).Milliseconds()
	}
	b.Run("spin-retry", func(b *testing.B) {
		var d int
		for i := 0; i < b.N; i++ {
			d, _ = run(b, func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy { return &flowctl.SpinRetry{} })
		}
		b.ReportMetric(float64(d), "delivered-of-60")
	})
	b.Run("random-backoff", func(b *testing.B) {
		var d int
		var ms float64
		for i := 0; i < b.N; i++ {
			d, ms = run(b, func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy {
				return &flowctl.RandomBackoff{Max: sim.Milliseconds(3)}
			})
		}
		b.ReportMetric(float64(d), "delivered-of-60")
		b.ReportMetric(ms, "sim-ms")
	})
	b.Run("reservation", func(b *testing.B) {
		var d int
		var ms float64
		for i := 0; i < b.N; i++ {
			d, ms = run(b, func(k *sim.Kernel, nw *snet.Network) flowctl.Strategy {
				return flowctl.NewReservation(k, nw)
			})
		}
		b.ReportMetric(float64(d), "delivered-of-60")
		b.ReportMetric(ms, "sim-ms")
	})
	b.Run("hpc-hardware", func(b *testing.B) {
		var ms float64
		for i := 0; i < b.N; i++ {
			sys, err := core.Build(core.Config{Nodes: 7, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			ms = workload.ManyToOne(sys, 1000, 10).Milliseconds()
		}
		b.ReportMetric(60, "delivered-of-60")
		b.ReportMetric(ms, "sim-ms")
	})
}

// BenchmarkContextSwitch regenerates E7's 80 µs context switch.
func BenchmarkContextSwitch(b *testing.B) {
	costs := m68k.DefaultCosts()
	var perSwitch float64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		n := kern.NewNode(k, costs, "n")
		const rounds = 200
		semA := n.NewSemaphore("a", 0)
		semB := n.NewSemaphore("b", 0)
		var start, end sim.Time
		n.SpawnSubprocess("ping", 0, func(sp *kern.Subprocess) {
			start = sp.Now()
			for j := 0; j < rounds; j++ {
				semA.V(sp)
				semB.P(sp)
			}
			end = sp.Now()
		})
		n.SpawnSubprocess("pong", 0, func(sp *kern.Subprocess) {
			for j := 0; j < rounds; j++ {
				semA.P(sp)
				semB.V(sp)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		perSwitch = end.Sub(start).Microseconds() / (2 * rounds)
	}
	b.ReportMetric(perSwitch, "sim-µs/handoff")
	b.ReportMetric(80, "paper-µs/switch")
}

// BenchmarkCoroutineSwitch regenerates E7's cheap coroutine switch.
func BenchmarkCoroutineSwitch(b *testing.B) {
	costs := m68k.DefaultCosts()
	var perSwitch float64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		n := kern.NewNode(k, costs, "n")
		const rounds = 200
		var elapsed sim.Duration
		n.SpawnSubprocess("host", 0, func(sp *kern.Subprocess) {
			g := kern.NewCoroutineGroup(sp)
			for c := 0; c < 2; c++ {
				g.Add(func(co *kern.Coroutine) {
					for j := 0; j < rounds; j++ {
						co.Yield()
					}
				})
			}
			s := sp.Now()
			g.Run()
			elapsed = sp.Now().Sub(s)
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		perSwitch = elapsed.Microseconds() / (2 * rounds)
	}
	b.ReportMetric(perSwitch, "sim-µs/switch")
}

// BenchmarkOpenStorm regenerates E8: the channel-open storm under
// centralized vs distributed object managers.
func BenchmarkOpenStorm(b *testing.B) {
	for _, central := range []bool{true, false} {
		name := "distributed"
		if central {
			name = "centralized"
		}
		b.Run(name, func(b *testing.B) {
			var ms float64
			var maxShare int
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Config{Hosts: 1, Nodes: 32, CentralizedManager: central, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res := workload.OpenStorm(sys, 6)
				ms = res.Elapsed.Milliseconds()
				maxShare = res.MaxPerManager
			}
			b.ReportMetric(ms, "sim-ms")
			b.ReportMetric(float64(maxShare), "max-opens-per-manager")
		})
	}
}

// BenchmarkSpiceSolve compares the SPICE workload over channels and
// user-defined objects (the E3 story at application level).
func BenchmarkSpiceSolve(b *testing.B) {
	for _, tr := range []spice.Transport{spice.Channels, spice.UDO} {
		b.Run(tr.String(), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Config{Nodes: 4, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				g := spice.NewGrid(16)
				res, _, err := spice.Solve(sys, g, 4, 40, tr)
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Milliseconds()
			}
			b.ReportMetric(ms, "sim-ms")
		})
	}
}

// BenchmarkFigure1Routing exercises the 1024-node incomplete-hypercube
// construction of Figure 1 / §1: route computation across the fabric.
func BenchmarkFigure1Routing(b *testing.B) {
	tp, err := topo.IncompleteHypercube(256, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		cur := tp.AttachmentOf(topo.EndpointID(i % 1024)).Cluster
		dst := tp.AttachmentOf(topo.EndpointID((i * 37) % 1024)).Cluster
		for hops++; cur != dst; hops++ {
			cur, _ = topo.NextHop(cur, dst)
		}
	}
	b.ReportMetric(float64(hops)/float64(b.N), "route-len")
}

// BenchmarkSimKernel measures the raw discrete-event engine:
// events dispatched per wall-clock second.
func BenchmarkSimKernel(b *testing.B) {
	k := sim.NewKernel(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			k.After(sim.Microsecond, tick)
		}
	}
	k.After(sim.Microsecond, tick)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimKernelCancel measures the schedule/cancel churn path —
// the arm-timer idiom every protocol timeout exercises.
func BenchmarkSimKernelCancel(b *testing.B) {
	k := sim.NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	var tm sim.Timer
	for i := 0; i < b.N; i++ {
		tm.Stop()
		tm = k.After(sim.Millisecond, fn)
		if i%1024 == 1023 {
			k.RunFor(10 * sim.Microsecond)
		}
	}
}

// BenchmarkHPCSendPath measures one full fabric cycle — route, hop
// through a 4-link cross-cluster path, deliver, release — on the
// pooled message path. Steady state is allocation-free.
func BenchmarkHPCSendPath(b *testing.B) {
	k := sim.NewKernel(1)
	tp, err := topo.IncompleteHypercube(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	ic := hpc.New(k, m68k.DefaultCosts(), tp)
	msg := &hpc.Message{Src: 0, Dst: topo.EndpointID(tp.Endpoints() - 1), Size: 512}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := ic.TrySend(msg, nil)
		if err != nil || !ok {
			b.Fatalf("TrySend: ok=%v err=%v", ok, err)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTMath measures the pure-Go FFT used by the workloads.
func BenchmarkFFTMath(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), float64(i%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fft.FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyscallPool measures the decentralized syscall scheme of
// §3.3's closing paragraph: 8 processes × 12 calls through 1 vs 4
// host workstations.
func BenchmarkSyscallPool(b *testing.B) {
	for _, hosts := range []int{1, 4} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Config{Hosts: hosts, Nodes: 8, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				pool := stub.NewSyscallPool(sys, sys.Hosts())
				var end sim.Time
				for p := 0; p < 8; p++ {
					p := p
					m := sys.Node(p)
					sys.Spawn(m, fmt.Sprintf("app%d", p), 0, func(sp *kern.Subprocess) {
						c := pool.NewClient(m)
						for j := 0; j < 12; j++ {
							if err := c.Syscall(sp, "write", sim.Microseconds(300)); err != nil {
								b.Error(err)
								return
							}
						}
						if sp.Now() > end {
							end = sp.Now()
						}
					})
				}
				sys.RunFor(sim.Seconds(30))
				sys.Shutdown()
				ms = end.Sub(0).Milliseconds()
			}
			b.ReportMetric(ms, "sim-ms")
		})
	}
}

// BenchmarkLindaOps measures tuple-space operation latency: an
// out/in pair between two nodes.
func BenchmarkLindaOps(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		sys, err := core.Build(core.Config{Nodes: 3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		space := linda.New(sys, sys.Nodes())
		const rounds = 100
		var start, end sim.Time
		sys.Spawn(sys.Node(0), "a", 0, func(sp *kern.Subprocess) {
			h := space.HandleOn(sys.Node(0))
			start = sp.Now()
			for j := 0; j < rounds; j++ {
				if err := h.Out(sp, "ping", j); err != nil {
					b.Error(err)
					return
				}
				if _, err := h.In(sp, "pong", linda.Any); err != nil {
					b.Error(err)
					return
				}
			}
			end = sp.Now()
		})
		sys.Spawn(sys.Node(1), "b", 0, func(sp *kern.Subprocess) {
			h := space.HandleOn(sys.Node(1))
			for j := 0; j < rounds; j++ {
				if _, err := h.In(sp, "ping", linda.Any); err != nil {
					b.Error(err)
					return
				}
				if err := h.Out(sp, "pong", j); err != nil {
					b.Error(err)
					return
				}
			}
		})
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		us = end.Sub(start).Microseconds() / (2 * rounds)
	}
	b.ReportMetric(us, "sim-µs/op-pair")
}

// BenchmarkAblationSideBuffers regenerates A1's anchor points.
func BenchmarkAblationSideBuffers(b *testing.B) {
	for _, id := range []string{"A1"} {
		tb := (*vorxbench.Table)(nil)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb = vorxbench.ByID(id)
			}
			_ = tb
		})
	}
}

// BenchmarkGatherVsCoalesce measures the scatter/gather saving for a
// 3x300-byte send.
func BenchmarkGatherVsCoalesce(b *testing.B) {
	run := func(coalesce bool) sim.Duration {
		sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		snd := udo.New(sys.Node(0).IF, "bench-g", false)
		rcv := udo.New(sys.Node(1).IF, "bench-g", false)
		segs := []udo.GatherSegment{{Size: 300}, {Size: 300}, {Size: 300}}
		var cost sim.Duration
		sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
			sp.Compute(sim.Microseconds(1))
			start := sp.Now()
			if coalesce {
				snd.SendCoalesced(sp, sys.Node(1).EP, segs)
			} else {
				snd.SendGather(sp, sys.Node(1).EP, segs)
			}
			cost = sp.Now().Sub(start)
		})
		sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) { rcv.Recv(sp) })
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		return cost
	}
	b.Run("gather", func(b *testing.B) {
		var d sim.Duration
		for i := 0; i < b.N; i++ {
			d = run(false)
		}
		b.ReportMetric(d.Microseconds(), "sim-µs")
	})
	b.Run("coalesce", func(b *testing.B) {
		var d sim.Duration
		for i := 0; i < b.N; i++ {
			d = run(true)
		}
		b.ReportMetric(d.Microseconds(), "sim-µs")
	})
}

// BenchmarkCEMU measures the CEMU-style distributed timing simulation:
// step rate by processor count.
func BenchmarkCEMU(b *testing.B) {
	circuit := cemu.RandomCircuit(6, 64, 5)
	initial := make([]bool, circuit.Signals)
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Config{Nodes: procs, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := cemu.Run(sys, circuit, initial, 10, procs, 4)
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Elapsed.Milliseconds()
			}
			b.ReportMetric(ms, "sim-ms")
		})
	}
}

// BenchmarkDFS measures distributed-file-service operation cost.
func BenchmarkDFS(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		sys, err := core.Build(core.Config{Hosts: 3, Nodes: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		svc := dfs.New(sys, sys.Hosts(), 2)
		c := svc.NewClient(sys.Node(0))
		const ops = 30
		var start, end sim.Time
		sys.Spawn(sys.Node(0), "app", 0, func(sp *kern.Subprocess) {
			if err := c.Create(sp, "/bench"); err != nil {
				b.Error(err)
				return
			}
			start = sp.Now()
			for j := 0; j < ops; j++ {
				if err := c.Append(sp, "/bench", make([]byte, 256)); err != nil {
					b.Error(err)
					return
				}
			}
			end = sp.Now()
		})
		sys.RunFor(sim.Seconds(10))
		sys.Shutdown()
		us = end.Sub(start).Microseconds() / ops
	}
	b.ReportMetric(us, "sim-µs/replicated-append")
}

// BenchmarkRapport measures the conference mixer's added latency per
// frame at several memberships.
func BenchmarkRapport(b *testing.B) {
	for _, members := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			var mixes int
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Config{Hosts: members, Nodes: 1, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				conf := rapport.New(sys, sys.Node(0), "bench")
				for m := 0; m < members; m++ {
					m := m
					host := sys.Host(m)
					sys.Spawn(host, fmt.Sprintf("c%d", m), 0, func(sp *kern.Subprocess) {
						mem, err := conf.Join(sp, host)
						if err != nil {
							b.Error(err)
							return
						}
						for f := 0; f < 10; f++ {
							if err := mem.Speak(sp); err != nil {
								return
							}
							if _, err := mem.Listen(sp); err != nil {
								return
							}
						}
						mem.Leave(sp)
					})
				}
				sys.RunFor(sim.Seconds(5))
				sys.Shutdown()
				mixes = conf.Mixed
			}
			b.ReportMetric(float64(mixes), "mixes")
		})
	}
}
