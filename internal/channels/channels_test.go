package channels_test

import (
	"fmt"
	"testing"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

func build(t *testing.T, nodes int) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOpenRendezvousAndTransfer(t *testing.T) {
	sys := build(t, 2)
	var got channels.Msg
	sys.Spawn(sys.Node(0), "writer", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "pipe", objmgr.OpenAny)
		if err := ch.Write(sp, 100, "hello"); err != nil {
			t.Error(err)
		}
	})
	sys.Spawn(sys.Node(1), "reader", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "pipe", objmgr.OpenAny)
		m, ok := ch.Read(sp)
		if !ok {
			t.Error("read failed")
		}
		got = m
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Size != 100 || got.Payload != "hello" {
		t.Fatalf("got %+v", got)
	}
}

// measureChannelLatency runs the paper's channel benchmark: rounds
// messages of the given size over one channel, reporting µs/message.
func measureChannelLatency(t *testing.T, size, rounds int) float64 {
	t.Helper()
	sys := build(t, 2)
	var start, end sim.Time
	sys.Spawn(sys.Node(0), "writer", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "bench", objmgr.OpenAny)
		start = sp.Now()
		for i := 0; i < rounds; i++ {
			if err := ch.Write(sp, size, nil); err != nil {
				t.Error(err)
			}
		}
		end = sp.Now()
	})
	sys.Spawn(sys.Node(1), "reader", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "bench", objmgr.OpenAny)
		for i := 0; i < rounds; i++ {
			if _, ok := ch.Read(sp); !ok {
				t.Error("read failed")
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return end.Sub(start).Microseconds() / float64(rounds)
}

func TestTable2Calibration(t *testing.T) {
	// Paper Table 2: message latency for channel communications.
	want := map[int]float64{4: 303, 64: 341, 256: 474, 1024: 997}
	for size, paper := range want {
		got := measureChannelLatency(t, size, 200)
		if diff := got - paper; diff > 12 || diff < -12 {
			t.Errorf("%d-byte channel latency = %.1f µs, paper %.0f µs", size, got, paper)
		}
	}
}

func TestChannelThroughputNear1027KBs(t *testing.T) {
	// Paper §4: "1024 byte messages can be sent at the rate of 1027
	// kbyte/sec".
	us := measureChannelLatency(t, 1024, 200)
	rate := 1024.0 / us // bytes per µs == Mbyte/s
	if rate < 0.98 || rate > 1.08 {
		t.Fatalf("throughput = %.3f Mbyte/s, paper 1.027", rate)
	}
}

func TestLargeWriteFragmentsAndAssembles(t *testing.T) {
	sys := build(t, 2)
	const size = 5000 // 5 fragments
	var got channels.Msg
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "big", objmgr.OpenAny)
		if err := ch.Write(sp, size, "bulk"); err != nil {
			t.Error(err)
		}
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "big", objmgr.OpenAny)
		got, _ = ch.Read(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Size != size || got.Payload != "bulk" {
		t.Fatalf("got %+v", got)
	}
}

func TestStopAndWaitBlocksSecondWrite(t *testing.T) {
	// Flow control property: a second Write cannot complete before
	// the receiver's kernel has taken the first message.
	sys := build(t, 2)
	var w1, w2 sim.Time
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "fc", objmgr.OpenAny)
		ch.Write(sp, 1000, nil)
		w1 = sp.Now()
		ch.Write(sp, 1000, nil)
		w2 = sp.Now()
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "fc", objmgr.OpenAny)
		ch.Read(sp)
		ch.Read(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Each write must take at least one full protocol round trip.
	if w2.Sub(w1) < sim.Microseconds(500) {
		t.Fatalf("second write completed after only %v", w2.Sub(w1))
	}
}

func TestSideBufferingWhenNoReader(t *testing.T) {
	// The receiving kernel has side buffers: writes complete without
	// a reader, and a later Read pays the extra kernel-to-user copy.
	sys := build(t, 2)
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "buf", objmgr.OpenAny)
		for i := 0; i < 5; i++ {
			if err := ch.Write(sp, 200, i); err != nil {
				t.Error(err)
			}
		}
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "buf", objmgr.OpenAny)
		sp.SleepFor(sim.Milliseconds(50)) // writer finishes first
		for i := 0; i < 5; i++ {
			m, ok := ch.Read(sp)
			if !ok || m.Payload != i {
				t.Errorf("read %d: %+v ok=%v", i, m, ok)
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Node(1).Chans.SideBuffersFree() != channels.DefaultSideBuffers {
		t.Fatalf("side buffers leaked: %d", sys.Node(1).Chans.SideBuffersFree())
	}
}

func TestSideBufferExhaustionTriggersRetransmit(t *testing.T) {
	// Rare path: receiver out of side buffers requests retransmission
	// when space becomes available. Nothing is lost.
	sys := build(t, 3)
	const writers = 2
	// Shrink the pool via many channels from two writer nodes to one
	// reader that sleeps: exhaust 64 side buffers, then drain.
	total := channels.DefaultSideBuffers + 10
	var received int
	for w := 0; w < writers; w++ {
		w := w
		sys.Spawn(sys.Node(w), "w", 0, func(sp *kern.Subprocess) {
			ch := sys.Node(w).Chans.Open(sp, fmt.Sprintf("st%d", w), objmgr.OpenAny)
			for i := 0; i < total/writers; i++ {
				if err := ch.Write(sp, 100, nil); err != nil {
					t.Error(err)
				}
			}
		})
	}
	sys.Spawn(sys.Node(2), "r", 0, func(sp *kern.Subprocess) {
		ch0 := sys.Node(2).Chans.Open(sp, "st0", objmgr.OpenAny)
		ch1 := sys.Node(2).Chans.Open(sp, "st1", objmgr.OpenAny)
		sp.SleepFor(sim.Milliseconds(100)) // let the pool fill
		for received < total {
			_, _, ok := channels.MuxRead(sp, ch0, ch1)
			if !ok {
				t.Error("mux read failed")
				return
			}
			received++
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
	if sys.Node(2).Chans.Busies == 0 || sys.Node(2).Chans.Retransmits == 0 {
		t.Fatalf("expected busy/retransmit path: busies=%d retrans=%d",
			sys.Node(2).Chans.Busies, sys.Node(2).Chans.Retransmits)
	}
}

func TestMuxRead(t *testing.T) {
	sys := build(t, 3)
	var from string
	sys.Spawn(sys.Node(0), "w0", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "mux-a", objmgr.OpenAny)
		sp.SleepFor(sim.Milliseconds(5))
		ch.Write(sp, 10, "a")
	})
	sys.Spawn(sys.Node(1), "w1", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "mux-b", objmgr.OpenAny)
		sp.SleepFor(sim.Milliseconds(1))
		ch.Write(sp, 10, "b")
	})
	sys.Spawn(sys.Node(2), "r", 0, func(sp *kern.Subprocess) {
		a := sys.Node(2).Chans.Open(sp, "mux-a", objmgr.OpenAny)
		b := sys.Node(2).Chans.Open(sp, "mux-b", objmgr.OpenAny)
		ch, m, ok := channels.MuxRead(sp, a, b)
		if !ok {
			t.Error("mux failed")
			return
		}
		from = fmt.Sprint(m.Payload)
		if ch != b {
			t.Errorf("expected first arrival from b, got %s", ch.Name())
		}
		// The other message must still arrive normally.
		if m2, ok := a.Read(sp); !ok || m2.Payload != "a" {
			t.Errorf("second read: %+v %v", m2, ok)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if from != "b" {
		t.Fatalf("first = %q", from)
	}
}

func TestServerNameReuse(t *testing.T) {
	// Paper §4: "a mechanism that allows servers to continually reuse
	// a single channel name". Three clients connect to one server
	// name sequentially.
	sys := build(t, 4)
	served := 0
	sys.Spawn(sys.Node(0), "server", 0, func(sp *kern.Subprocess) {
		for i := 0; i < 3; i++ {
			ch := sys.Node(0).Chans.Open(sp, "service", objmgr.Serve)
			m, ok := ch.Read(sp)
			if !ok {
				t.Error("server read failed")
				return
			}
			served++
			ch.Write(sp, 10, fmt.Sprintf("reply-to-%v", m.Payload))
			ch.Close(sp)
		}
	})
	for c := 1; c <= 3; c++ {
		c := c
		sys.Spawn(sys.Node(c), fmt.Sprintf("client%d", c), 0, func(sp *kern.Subprocess) {
			ch := sys.Node(c).Chans.Open(sp, "service", objmgr.Connect)
			ch.Write(sp, 10, c)
			if _, ok := ch.Read(sp); !ok {
				t.Errorf("client %d reply read failed", c)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 3 {
		t.Fatalf("served = %d", served)
	}
}

func TestCloseUnblocksPeerReader(t *testing.T) {
	sys := build(t, 2)
	readerOK := true
	sys.Spawn(sys.Node(0), "closer", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "c", objmgr.OpenAny)
		sp.SleepFor(sim.Milliseconds(2))
		ch.Close(sp)
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "c", objmgr.OpenAny)
		_, readerOK = ch.Read(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if readerOK {
		t.Fatal("read on closed channel should report !ok")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	sys := build(t, 2)
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "c", objmgr.OpenAny)
		ch.Close(sp)
		if err := ch.Write(sp, 10, nil); err == nil {
			t.Error("write after close should fail")
		}
	})
	sys.Spawn(sys.Node(1), "peer", 0, func(sp *kern.Subprocess) {
		sys.Node(1).Chans.Open(sp, "c", objmgr.OpenAny)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotReportsChannelState(t *testing.T) {
	sys := build(t, 2)
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "snap", objmgr.OpenAny)
		ch.Write(sp, 10, nil)
		ch.Write(sp, 10, nil)
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "snap", objmgr.OpenAny)
		ch.Read(sp)
		ch.Read(sp)
		ch.Read(sp) // blocks forever: deadlock visible in snapshot
	})
	err := sys.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	snap := sys.Node(1).Chans.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	st := snap[0]
	if st.Name != "snap" || st.Received != 2 || !st.ReaderBlocked {
		t.Fatalf("state = %+v", st)
	}
	wsnap := sys.Node(0).Chans.Snapshot()
	if wsnap[0].Sent != 2 || wsnap[0].WriterBlocked {
		t.Fatalf("writer state = %+v", wsnap[0])
	}
	sys.Shutdown()
}

func TestManyChannelsBetweenSamePair(t *testing.T) {
	sys := build(t, 2)
	const n = 8
	var got [n]bool
	for i := 0; i < n; i++ {
		i := i
		sys.Spawn(sys.Node(0), fmt.Sprintf("w%d", i), 0, func(sp *kern.Subprocess) {
			ch := sys.Node(0).Chans.Open(sp, fmt.Sprintf("multi%d", i), objmgr.OpenAny)
			ch.Write(sp, 50, i)
		})
		sys.Spawn(sys.Node(1), fmt.Sprintf("r%d", i), 0, func(sp *kern.Subprocess) {
			ch := sys.Node(1).Chans.Open(sp, fmt.Sprintf("multi%d", i), objmgr.OpenAny)
			m, ok := ch.Read(sp)
			if ok && m.Payload == i {
				got[i] = true
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ok := range got {
		if !ok {
			t.Errorf("channel %d failed", i)
		}
	}
}

func TestCentralizedManagerAlsoWorks(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 2, CentralizedManager: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "central", objmgr.OpenAny)
		ch.Write(sp, 10, nil)
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "central", objmgr.OpenAny)
		_, ok = ch.Read(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("transfer failed under centralized manager")
	}
}

// measureWindowed is measureChannelLatency with a sender-side window.
func measureWindowed(t *testing.T, size, rounds, window int) float64 {
	t.Helper()
	sys := build(t, 2)
	var start, end sim.Time
	sys.Spawn(sys.Node(0), "writer", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "wbench", objmgr.OpenAny)
		ch.SetWindow(window)
		start = sp.Now()
		for i := 0; i < rounds; i++ {
			if err := ch.Write(sp, size, nil); err != nil {
				t.Error(err)
			}
		}
		end = sp.Now()
	})
	sys.Spawn(sys.Node(1), "reader", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "wbench", objmgr.OpenAny)
		for i := 0; i < rounds; i++ {
			if _, ok := ch.Read(sp); !ok {
				t.Error("read failed")
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return end.Sub(start).Microseconds() / float64(rounds)
}

func TestWindowedChannelsBeatStopAndWait(t *testing.T) {
	// §4.1's conclusion: "we should consider the use of a
	// sliding-window protocol for channels". With a window of 4 the
	// kernel keeps writes in flight and per-message time drops well
	// below the 303 µs stop-and-wait figure.
	sw := measureWindowed(t, 4, 400, 1)
	w4 := measureWindowed(t, 4, 400, 4)
	if sw < 295 || sw > 311 {
		t.Fatalf("window=1 latency %.1f, want ~303 (stop-and-wait baseline)", sw)
	}
	if w4 >= sw*0.85 {
		t.Fatalf("window=4 latency %.1f not clearly below stop-and-wait %.1f", w4, sw)
	}
}

func TestWindowedOrderingUnderStarvation(t *testing.T) {
	// Force the busy/retransmit path with a tiny side-buffer pool and
	// a windowed writer: messages must still arrive exactly once, in
	// order.
	sys := build(t, 2)
	sys.Node(1).Chans.SetSideBuffers(1)
	const msgs = 30
	var got []int
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "ord", objmgr.OpenAny)
		ch.SetWindow(4)
		for i := 0; i < msgs; i++ {
			if err := ch.Write(sp, 300, i); err != nil {
				t.Error(err)
			}
		}
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "ord", objmgr.OpenAny)
		for i := 0; i < msgs; i++ {
			sp.SleepFor(sim.Milliseconds(2)) // stay behind the writer
			m, ok := ch.Read(sp)
			if !ok {
				t.Error("read failed")
				return
			}
			got = append(got, m.Payload.(int))
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != msgs {
		t.Fatalf("got %d messages, want %d", len(got), msgs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if sys.Node(1).Chans.Busies == 0 {
		t.Fatal("test did not exercise the busy path")
	}
}

func TestWindowRespectsLimit(t *testing.T) {
	// A window of 2 must never allow a third un-acked write: with the
	// receiver wedged (never reading, pool exhausted by other
	// channels... here simply no reader and tiny pool), the writer
	// stalls after filling the window.
	sys := build(t, 2)
	sys.Node(1).Chans.SetSideBuffers(1)
	written := 0
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "lim", objmgr.OpenAny)
		ch.SetWindow(2)
		for i := 0; i < 10; i++ {
			if err := ch.Write(sp, 100, i); err != nil {
				return
			}
			written++
		}
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		sys.Node(1).Chans.Open(sp, "lim", objmgr.OpenAny)
		// Never reads.
	})
	sys.RunFor(sim.Seconds(2))
	// First write side-buffers (acked), then one more is in flight;
	// the window lets at most 2 complete beyond the buffered one.
	if written > 3 {
		t.Fatalf("writer completed %d writes into a wedged receiver (window 2)", written)
	}
	sys.Shutdown()
}

// TestShellListsCappedOnOneWayShardTraffic: with every writer on shard 0
// and every reader on shard 1 (E19's shape), each fragment is made on
// shard 0 and freed on shard 1, and each ack the other way round. After
// more writes than netif.MaxFreeShells, shard 1's fragment list and
// shard 0's ack list hold exactly the cap, and the senders' own lists
// of those shells stay empty.
func TestShellListsCappedOnOneWayShardTraffic(t *testing.T) {
	const pairs, writes = 4, 300
	if pairs*writes <= netif.MaxFreeShells {
		t.Fatalf("%d writes do not pass the cap of %d", pairs*writes, netif.MaxFreeShells)
	}
	sh, err := core.BuildSharded(core.Config{Nodes: 16, Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var side [2][]*core.Machine
	for _, m := range sh.Nodes() {
		s := sh.Part.OfEndpoint(sh.Topo, m.EP)
		side[s] = append(side[s], m)
	}
	read := make([]int, pairs)
	for i := 0; i < pairs; i++ {
		i, name := i, fmt.Sprintf("oneway%d", i)
		w, r := side[0][i], side[1][i]
		sh.Spawn(w, "writer", 0, func(sp *kern.Subprocess) {
			ch := w.Chans.Open(sp, name, objmgr.OpenAny)
			for n := 0; n < writes; n++ {
				if err := ch.Write(sp, 64, nil); err != nil {
					t.Error(err)
					return
				}
			}
		})
		sh.Spawn(r, "reader", 0, func(sp *kern.Subprocess) {
			ch := r.Chans.Open(sp, name, objmgr.OpenAny)
			for n := 0; n < writes; n++ {
				if _, ok := ch.Read(sp); !ok {
					t.Error("read failed")
					return
				}
				read[i]++
			}
		})
	}
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range read {
		if n != writes {
			t.Fatalf("pair %d read %d of %d writes", i, n, writes)
		}
	}
	txFrags, txAcks := side[0][0].Chans.FreeShells()
	rxFrags, rxAcks := side[1][0].Chans.FreeShells()
	if rxFrags != netif.MaxFreeShells || txAcks != netif.MaxFreeShells {
		t.Fatalf("shard 1 keeps %d fragment shells and shard 0 %d ack shells, want the cap, %d",
			rxFrags, txAcks, netif.MaxFreeShells)
	}
	if txFrags != 0 || rxAcks != 0 {
		t.Fatalf("shard 0 keeps %d fragment shells and shard 1 %d ack shells, want 0", txFrags, rxAcks)
	}
}
