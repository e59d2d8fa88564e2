package udo_test

import (
	"testing"
	"testing/quick"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/udo"
)

func build(t *testing.T, nodes int) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRawObjectISRDelivery(t *testing.T) {
	sys := build(t, 2)
	snd := udo.New(sys.Node(0).IF, "raw", false)
	rcv := udo.New(sys.Node(1).IF, "raw", false)
	var got udo.Msg
	sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
		if err := snd.Send(sp, sys.Node(1).EP, 64, "ping"); err != nil {
			t.Error(err)
		}
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		got = rcv.Recv(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Size != 64 || got.Payload != "ping" {
		t.Fatalf("got %+v", got)
	}
}

func TestSPICESoftwareLatency60us(t *testing.T) {
	// Paper §4.1: parallel SPICE "was able to obtain 60 µsec software
	// latencies for 64 byte messages with direct access to the
	// communications hardware and no low-level protocol" — polled
	// receive, no interrupts, no kernel.
	sys := build(t, 2)
	s2 := udo.New(sys.Node(0).IF, "spice", true)
	r2 := udo.New(sys.Node(1).IF, "spice", true)
	var t0, t1 sim.Time
	sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
		s2.Send(sp, sys.Node(1).EP, 64, nil) // warm up (first dispatch)
		sp.SleepFor(sim.Milliseconds(1))
		t0 = sp.Now()
		s2.Send(sp, sys.Node(1).EP, 64, nil)
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		r2.Recv(sp)
		r2.Recv(sp)
		t1 = sp.Now()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	costs := sys.Costs
	wire := 2 * (costs.HopFixed + costs.WireTime(64+udo.RawHeader))
	software := t1.Sub(t0) - wire
	if us := software.Microseconds(); us < 52 || us > 68 {
		t.Fatalf("software latency = %.1f µs, paper reports 60", us)
	}
}

// windowLatency runs the paper's Table 1 benchmark: the sender
// transmits `rounds` fixed-size messages under a k-buffer
// reader-active sliding window; latency is elapsed time at the sender
// divided by the message count.
func windowLatency(t *testing.T, size, k, rounds int) float64 {
	t.Helper()
	sys := build(t, 2)
	ws := udo.NewWindowSender(sys.Node(0).IF, "w", sys.Node(1).EP, size)
	wr := udo.NewWindowReceiver(sys.Node(1).IF, "w", sys.Node(0).EP, size, k)
	var start, end sim.Time
	sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
		sp.SleepFor(sim.Milliseconds(2)) // let initial credits arrive
		start = sp.Now()
		for i := 0; i < rounds; i++ {
			ws.Send(sp, nil)
		}
		end = sp.Now()
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		wr.Start(sp)
		for i := 0; i < rounds; i++ {
			wr.Recv(sp)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return end.Sub(start).Microseconds() / float64(rounds)
}

func TestTable1Endpoints(t *testing.T) {
	// Paper Table 1 anchors: 1 buffer and 64 buffers, 4- and
	// 1024-byte messages.
	cases := []struct {
		size, k int
		paper   float64
		tol     float64
	}{
		{4, 1, 414, 25},
		{4, 64, 164, 20},
		{1024, 1, 1071, 85}, // our t1 slope is a little above the paper's
		{1024, 64, 504, 30},
	}
	for _, c := range cases {
		got := windowLatency(t, c.size, c.k, 1000)
		if got < c.paper-c.tol || got > c.paper+c.tol {
			t.Errorf("size=%d k=%d: %.1f µs, paper %.0f (±%.0f)", c.size, c.k, got, c.paper, c.tol)
		}
	}
}

func TestTable1MonotoneInBuffers(t *testing.T) {
	prev := 1e18
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		got := windowLatency(t, 64, k, 1000)
		if got > prev+5 {
			t.Fatalf("latency not monotone: k=%d gives %.1f after %.1f", k, got, prev)
		}
		prev = got
	}
}

func TestSlidingWindowBeatsChannelsEvenWithTwoBuffers(t *testing.T) {
	// Paper §4.1: "Even with a simple protocol and two buffers, a
	// sliding-window protocol obtained better latencies than the
	// highly optimized channel protocol" (290 vs 303 µs at 4 bytes).
	got := windowLatency(t, 4, 2, 1000)
	if got >= 303 {
		t.Fatalf("2-buffer window latency %.1f µs, should beat the 303 µs channel", got)
	}
}

func TestWindowNeverExceedsCredits(t *testing.T) {
	// Flow-control invariant: messages in flight + receiver ring
	// never exceed k.
	sys := build(t, 2)
	const k = 4
	ws := udo.NewWindowSender(sys.Node(0).IF, "inv", sys.Node(1).EP, 256)
	wr := udo.NewWindowReceiver(sys.Node(1).IF, "inv", sys.Node(0).EP, 256, k)
	sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
		sp.SleepFor(sim.Milliseconds(2))
		for i := 0; i < 100; i++ {
			ws.Send(sp, i)
			if ws.Credits() > k {
				t.Errorf("credits %d exceed k=%d", ws.Credits(), k)
			}
		}
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		wr.Start(sp)
		for i := 0; i < 100; i++ {
			m := wr.Recv(sp)
			if m.Payload != i {
				t.Errorf("out of order: got %v want %d", m.Payload, i)
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if ws.Stalls == 0 {
		t.Error("sender never stalled with k=4 — suspicious")
	}
}

func TestPolledBackpressureThrottlesSender(t *testing.T) {
	// With a polled object and a receiver that never polls, the
	// sender must eventually block on hardware backpressure rather
	// than buffer unboundedly.
	sys := build(t, 2)
	snd := udo.New(sys.Node(0).IF, "bp", true)
	rcv := udo.New(sys.Node(1).IF, "bp", true)
	sent := 0
	sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
		for i := 0; i < 100; i++ {
			snd.Send(sp, sys.Node(1).EP, 1000, nil)
			sent++
		}
	})
	sys.RunFor(sim.Seconds(1))
	if sent >= 100 {
		t.Fatalf("sender completed %d sends with no consumer; backpressure missing", sent)
	}
	if rcv.Pending() > udo.PolledDepth {
		t.Fatalf("polled queue grew to %d (> depth %d)", rcv.Pending(), udo.PolledDepth)
	}
	sys.Shutdown()
}

// Property: the sliding-window protocol delivers every message, in
// order, for any (size, buffer count, message count).
func TestWindowDeliveryProperty(t *testing.T) {
	f := func(sizeRaw uint16, kRaw, countRaw uint8) bool {
		size := int(sizeRaw%1000) + 1
		k := int(kRaw%10) + 1
		count := int(countRaw%40) + 1
		sys := buildQ(t)
		ws := udo.NewWindowSender(sys.Node(0).IF, "pw", sys.Node(1).EP, size)
		wr := udo.NewWindowReceiver(sys.Node(1).IF, "pw", sys.Node(0).EP, size, k)
		var got []int
		sys.Spawn(sys.Node(0), "s", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(sim.Milliseconds(2))
			for i := 0; i < count; i++ {
				ws.Send(sp, i)
			}
		})
		sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
			wr.Start(sp)
			for i := 0; i < count; i++ {
				got = append(got, wr.Recv(sp).Payload.(int))
			}
		})
		if err := sys.Run(); err != nil {
			return false
		}
		if len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func buildQ(t *testing.T) *core.System {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
