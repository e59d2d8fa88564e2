package main

import (
	"fmt"
	"time"

	"hpcvorx/internal/core"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// A micro-run isolates one layer: it drives that layer's public
// functions in a tight loop and reports host nanoseconds per
// operation. Each is sampled microSamples times after one warm-up, and
// reported as the median with its spread.
const microSamples = 9

type microRun struct {
	name string // per-layer metric name
	ops  int    // operations per sample
	run  func(ops int) (time.Duration, error)
}

var microRuns = []microRun{
	{"sim.kernel_ns_per_event", 200_000, microKernel},
	{"kern.handoff_ns", 20_000, microHandoff},
	{"hpc.send_path_ns", 20_000, microSendPath},
	{"netif.deliver_ns", 20_000, microDeliver},
	{"channels.write_ns", 4_000, microWrite},
}

// runMicro samples every micro-run into res, calibrating the host
// before each sample.
func runMicro(res *result, speed *hostSpeed) error {
	for _, m := range microRuns {
		if _, err := m.run(m.ops); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		var ns []float64
		for i := 0; i < microSamples; i++ {
			speed.sample()
			d, err := m.run(m.ops)
			if err != nil {
				return fmt.Errorf("%s: %w", m.name, err)
			}
			ns = append(ns, float64(d.Nanoseconds())/float64(m.ops))
		}
		res.set(m.name, median(ns), "ns")
		res.set(m.name+".spread", spread(ns), "ratio")
	}
	return nil
}

// microKernel is the dispatch floor: one self-rescheduling timer.
func microKernel(ops int) (time.Duration, error) {
	k := sim.NewKernel(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < ops {
			k.After(sim.Microsecond, tick)
		}
	}
	k.After(sim.Microsecond, tick)
	t0 := time.Now()
	err := k.Run()
	return time.Since(t0), err
}

// microHandoff ping-pongs two subprocesses on one node through a pair
// of semaphores; each operation is one blocking hand-off.
func microHandoff(ops int) (time.Duration, error) {
	k := sim.NewKernel(1)
	n := kern.NewNode(k, m68k.DefaultCosts(), "n0")
	ping, pong := n.NewSemaphore("ping", 0), n.NewSemaphore("pong", 0)
	rounds := ops / 2
	n.SpawnSubprocess("a", 0, func(sp *kern.Subprocess) {
		for i := 0; i < rounds; i++ {
			ping.V(sp)
			pong.P(sp)
		}
	})
	n.SpawnSubprocess("b", 0, func(sp *kern.Subprocess) {
		for i := 0; i < rounds; i++ {
			ping.P(sp)
			pong.V(sp)
		}
	})
	t0 := time.Now()
	err := k.Run()
	return time.Since(t0), err
}

// microSendPath pushes one message at a time through a four-link
// cross-cluster route: route, hop, deliver, release.
func microSendPath(ops int) (time.Duration, error) {
	k := sim.NewKernel(1)
	tp, err := topo.IncompleteHypercube(4, 4)
	if err != nil {
		return 0, err
	}
	ic := hpc.New(k, m68k.DefaultCosts(), tp)
	msg := &hpc.Message{Src: 0, Dst: topo.EndpointID(tp.Endpoints() - 1), Size: 512}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		ok, err := ic.TrySend(msg, nil)
		if err != nil || !ok {
			return 0, fmt.Errorf("TrySend: ok=%v err=%v", ok, err)
		}
		if err := k.Run(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// microDeliver sends a chain of interrupt-level messages between the
// network interfaces of two nodes: each delivery's handler issues the
// next send.
func microDeliver(ops int) (time.Duration, error) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		return 0, err
	}
	a, b := sys.Node(0).IF, sys.Node(1).IF
	got := 0
	b.Register("pb.ping", netif.Service{
		Cost: func(*hpc.Message) sim.Duration { return 5 * sim.Microsecond },
		Handle: func(*hpc.Message) {
			got++
			if got < ops {
				a.SendAsync(b.Endpoint(), "pb.ping", 64, nil, nil)
			}
		},
	})
	a.SendAsync(b.Endpoint(), "pb.ping", 64, nil, nil)
	t0 := time.Now()
	err = sys.Run()
	d := time.Since(t0)
	if err == nil && got != ops {
		err = fmt.Errorf("delivered %d of %d", got, ops)
	}
	return d, err
}

// microWrite streams classic 64-byte channel writes between two nodes
// and reads them back; each operation is one write and its read.
func microWrite(ops int) (time.Duration, error) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		return 0, err
	}
	a, b := sys.Node(0), sys.Node(1)
	var werr error
	got := 0
	sys.Spawn(a, "w", 0, func(sp *kern.Subprocess) {
		ch := a.Chans.Open(sp, "pb.micro", objmgr.OpenAny)
		for i := 0; i < ops && werr == nil; i++ {
			werr = ch.Write(sp, 64, nil)
		}
	})
	sys.Spawn(b, "r", 0, func(sp *kern.Subprocess) {
		ch := b.Chans.Open(sp, "pb.micro", objmgr.OpenAny)
		for ; got < ops; got++ {
			if _, ok := ch.Read(sp); !ok {
				return
			}
		}
	})
	t0 := time.Now()
	err = sys.Run()
	d := time.Since(t0)
	if err == nil {
		err = werr
	}
	if err == nil && got != ops {
		err = fmt.Errorf("read %d of %d", got, ops)
	}
	return d, err
}
