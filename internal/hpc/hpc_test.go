package hpc

import (
	"fmt"
	"testing"
	"testing/quick"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

func newFabric(t *testing.T, endpoints int) (*sim.Kernel, *Interconnect) {
	t.Helper()
	k := sim.NewKernel(1)
	tp, err := topo.SingleCluster(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	return k, New(k, m68k.DefaultCosts(), tp)
}

func TestPointToPointDelivery(t *testing.T) {
	k, ic := newFabric(t, 2)
	var got *Message
	var at sim.Time
	ic.SetDeliver(1, func(d *Delivery) {
		got = d.Msg
		at = k.Now()
		d.Release()
	})
	k.Spawn("sender", func(p *sim.Proc) {
		err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 100, Payload: "hi"}, nil)
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Payload != "hi" {
		t.Fatal("message not delivered")
	}
	// Two store-and-forward hops: 2 * (HopFixed + 100*WirePerByte)
	// = 2 * (1 + 5) = 12 µs.
	if want := sim.Time(sim.Microseconds(12)); at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	st := ic.Stats()
	if st.MessagesDelivered != 1 || st.BytesDelivered != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	_, ic := newFabric(t, 2)
	_, err := ic.TrySend(&Message{Src: 0, Dst: 1, Size: 1061}, nil)
	if err == nil {
		t.Fatal("1061-byte message should exceed the 1060-byte hardware limit")
	}
	ok, err := ic.TrySend(&Message{Src: 0, Dst: 1, Size: 1060}, nil)
	if err != nil || !ok {
		t.Fatalf("1060-byte message should be accepted: ok=%v err=%v", ok, err)
	}
	if _, err := ic.TrySend(&Message{Src: 0, Dst: 1, Size: -1}, nil); err == nil {
		t.Fatal("negative size should be rejected")
	}
}

func TestOutputSectionBackpressure(t *testing.T) {
	k, ic := newFabric(t, 2)
	// Receiver that never releases: the fabric backs up to the sender.
	var stuck *Delivery
	ic.SetDeliver(1, func(d *Delivery) { stuck = d })
	ok, err := ic.TrySend(&Message{Src: 0, Dst: 1, Size: 1000}, nil)
	if !ok || err != nil {
		t.Fatal("first send should be accepted")
	}
	k.RunFor(sim.Seconds(1))
	// First message sits in endpoint 1's input section. Second fills
	// the cluster buffer, third the output section; fourth must be
	// refused.
	for i := 0; i < 2; i++ {
		ok, err = ic.TrySend(&Message{Src: 0, Dst: 1, Size: 1000}, nil)
		if !ok || err != nil {
			t.Fatalf("send %d: ok=%v err=%v", i+2, ok, err)
		}
		k.RunFor(sim.Seconds(1))
	}
	ok, _ = ic.TrySend(&Message{Src: 0, Dst: 1, Size: 1000}, nil)
	if ok {
		t.Fatal("fabric full: send should be refused, not accepted")
	}
	// Interrupt fires once the receiver drains.
	roomAt := sim.Time(-1)
	ic.NotifyRoom(0, func() { roomAt = k.Now() })
	stuck.Release()
	k.RunFor(sim.Seconds(1))
	if roomAt < 0 {
		t.Fatal("room-available interrupt never fired")
	}
	if !ic.OutputFree(0) {
		t.Fatal("output section should be free after drain")
	}
}

// TestBlockedSendWaitReason: a sender waiting for room in its full
// output section is reported as "hpc-output <endpoint>".
func TestBlockedSendWaitReason(t *testing.T) {
	k, ic := newFabric(t, 12)
	ic.SetDeliver(0, func(*Delivery) {}) // never releases: the fabric backs up
	k.Spawn("sender", func(p *sim.Proc) {
		for {
			if err := ic.Send(p, &Message{Src: 11, Dst: 0, Size: 1000}, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	defer k.Shutdown()
	err := k.Run()
	dl, ok := err.(*sim.DeadlockError)
	if !ok || len(dl.Procs) != 1 || dl.Procs[0] != (sim.BlockedProc{Name: "sender", Reason: "hpc-output 11"}) {
		t.Fatalf("Run = %v, want the sender blocked as hpc-output 11", err)
	}
}

func TestNoLossUnderManyToOne(t *testing.T) {
	// Paper §2: HPC flow control makes loss impossible and every
	// sender is eventually serviced. 11 senders blast one receiver.
	k, ic := newFabric(t, 12)
	const perSender = 20
	received := map[topo.EndpointID]int{}
	ic.SetDeliver(0, func(d *Delivery) {
		received[d.Msg.Src]++
		d.Release()
	})
	for s := 1; s < 12; s++ {
		s := s
		k.Spawn(fmt.Sprintf("sender%d", s), func(p *sim.Proc) {
			for i := 0; i < perSender; i++ {
				if err := ic.Send(p, &Message{Src: topo.EndpointID(s), Dst: 0, Size: 1000}, nil); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 1; s < 12; s++ {
		if received[topo.EndpointID(s)] != perSender {
			t.Errorf("sender %d: delivered %d, want %d", s, received[topo.EndpointID(s)], perSender)
		}
		total += received[topo.EndpointID(s)]
	}
	if total != 11*perSender {
		t.Fatalf("total = %d", total)
	}
}

func TestFairnessUnderContention(t *testing.T) {
	// While all senders are continuously backlogged, deliveries from
	// each should interleave rather than starve anyone: after the
	// first k deliveries, every sender should appear at least once
	// within any window of 2*senders deliveries.
	k, ic := newFabric(t, 5)
	var order []topo.EndpointID
	ic.SetDeliver(0, func(d *Delivery) {
		order = append(order, d.Msg.Src)
		d.Release()
	})
	const perSender = 30
	for s := 1; s < 5; s++ {
		s := s
		k.Spawn(fmt.Sprintf("sender%d", s), func(p *sim.Proc) {
			for i := 0; i < perSender; i++ {
				_ = ic.Send(p, &Message{Src: topo.EndpointID(s), Dst: 0, Size: 500}, nil)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Check no starvation in the steady-state middle of the run.
	window := 8
	for start := 8; start+window < len(order)-8; start++ {
		seen := map[topo.EndpointID]bool{}
		for _, s := range order[start : start+window] {
			seen[s] = true
		}
		if len(seen) < 4 {
			t.Fatalf("window at %d: only %d distinct senders in %v", start, len(seen), order[start:start+window])
		}
	}
}

func TestMultiClusterRouting(t *testing.T) {
	k := sim.NewKernel(1)
	tp, err := topo.IncompleteHypercube(4, 2) // 8 endpoints, dim 2
	if err != nil {
		t.Fatal(err)
	}
	ic := New(k, m68k.DefaultCosts(), tp)
	var at sim.Time
	ic.SetDeliver(7, func(d *Delivery) { at = k.Now(); d.Release() })
	k.Spawn("s", func(p *sim.Proc) {
		// endpoint 0 on cluster 0 -> endpoint 7 on cluster 3: 2 cube
		// hops + up + down = 4 store-and-forward link traversals.
		if err := ic.Send(p, &Message{Src: 0, Dst: 7, Size: 200}, nil); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(4 * (sim.Microseconds(1) + 200*sim.Microseconds(0.05)))
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestMulticastDeliversToAll(t *testing.T) {
	k, ic := newFabric(t, 6)
	got := map[topo.EndpointID]int{}
	for e := 1; e < 6; e++ {
		e := topo.EndpointID(e)
		ic.SetDeliver(e, func(d *Delivery) { got[e]++; d.Release() })
	}
	k.Spawn("mc", func(p *sim.Proc) {
		dsts := []topo.EndpointID{1, 2, 3, 4, 5}
		err := ic.SendMulticast(p, 0, dsts, 512, "blob", "mc", nil)
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for e := 1; e < 6; e++ {
		if got[topo.EndpointID(e)] != 1 {
			t.Errorf("endpoint %d got %d copies", e, got[topo.EndpointID(e)])
		}
	}
	if ic.Stats().MulticastsSent != 1 {
		t.Fatalf("stats = %+v", ic.Stats())
	}
}

func TestMulticastChargesUplinkOnce(t *testing.T) {
	// The sender's output section must be reusable after one up-link
	// transmission, not len(dsts) of them.
	k, ic := newFabric(t, 4)
	var mcDone, p2pStart sim.Time
	delivered := 0
	for e := 1; e < 4; e++ {
		e := topo.EndpointID(e)
		ic.SetDeliver(e, func(d *Delivery) { delivered++; d.Release() })
	}
	k.Spawn("mc", func(p *sim.Proc) {
		if err := ic.SendMulticast(p, 0, []topo.EndpointID{1, 2, 3}, 1000, nil, "mc", nil); err != nil {
			t.Error(err)
		}
		mcDone = p.Now()
		// Next unicast: must wait only for the single up transfer to
		// drain the replication buffer, not 3 sequential sends.
		if err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 4}, nil); err != nil {
			t.Error(err)
		}
		p2pStart = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 4 {
		t.Fatalf("delivered = %d, want 4", delivered)
	}
	// up transfer = 1 + 50 = 51 µs; all three branches then leave the
	// replication buffer in parallel (separate down links), so the
	// output section frees after ~102 µs, far less than 3 serialized
	// 1000-byte transfers.
	if gap := p2pStart.Sub(mcDone); gap > sim.Microseconds(150) {
		t.Fatalf("output section blocked for %v after multicast", gap)
	}
}

func TestDeliveryReleaseIdempotent(t *testing.T) {
	k, ic := newFabric(t, 2)
	ic.SetDeliver(1, func(d *Delivery) {
		d.Release()
		d.Release() // must be a no-op
	})
	k.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 10}, nil); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ic.Stats().MessagesDelivered != 3 {
		t.Fatalf("delivered = %d", ic.Stats().MessagesDelivered)
	}
}

func TestNoDeliverHandlerAutoDrains(t *testing.T) {
	k, ic := newFabric(t, 2)
	k.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 10}, nil); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ic.Stats().MessagesDelivered != 5 {
		t.Fatalf("delivered = %d", ic.Stats().MessagesDelivered)
	}
}

// Property: under arbitrary all-to-all traffic on an incomplete
// hypercube, every message is delivered exactly once (no loss, no
// duplication, no fabric deadlock).
func TestAllToAllExactlyOnceProperty(t *testing.T) {
	f := func(nClRaw, perRaw, msgsRaw uint8, size uint16) bool {
		nCl := int(nClRaw%6) + 1
		per := int(perRaw%3) + 1
		msgs := int(msgsRaw%5) + 1
		sz := int(size%1060) + 1
		k := sim.NewKernel(int64(nCl*100 + per))
		tp, err := topo.IncompleteHypercube(nCl, per)
		if err != nil {
			return false
		}
		ic := New(k, m68k.DefaultCosts(), tp)
		n := tp.Endpoints()
		recv := make([]int, n)
		for e := 0; e < n; e++ {
			e := e
			ic.SetDeliver(topo.EndpointID(e), func(d *Delivery) {
				recv[e]++
				d.Release()
			})
		}
		for s := 0; s < n; s++ {
			s := s
			k.Spawn(fmt.Sprintf("s%d", s), func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					for d := 0; d < n; d++ {
						if d == s {
							continue
						}
						if err := ic.Send(p, &Message{Src: topo.EndpointID(s), Dst: topo.EndpointID(d), Size: sz}, nil); err != nil {
							t.Error(err)
						}
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for e := 0; e < n; e++ {
			if recv[e] != msgs*(n-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkStatsTrackTraffic(t *testing.T) {
	k, ic := newFabric(t, 3)
	k.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 500}, nil); err != nil {
				t.Error(err)
			}
		}
		if err := ic.Send(p, &Message{Src: 0, Dst: 2, Size: 100}, nil); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	stats := map[string]LinkStat{}
	for _, ls := range ic.LinkStats() {
		stats[ls.Name] = ls
	}
	if stats["up0"].Messages != 6 {
		t.Errorf("up0 carried %d messages, want 6", stats["up0"].Messages)
	}
	if stats["dn1"].Messages != 5 || stats["dn2"].Messages != 1 {
		t.Errorf("down links: dn1=%d dn2=%d", stats["dn1"].Messages, stats["dn2"].Messages)
	}
	if hot := ic.HottestLink(); hot.Name != "up0" {
		t.Errorf("hottest = %+v, want up0", hot)
	}
	// Busy time for up0: 6 transmissions = 5*(1+25) + (1+5) = 136 µs.
	if want := 5*(sim.Microseconds(1)+sim.Microseconds(25)) + sim.Microseconds(6); stats["up0"].Busy != want {
		t.Errorf("up0 busy = %v, want %v", stats["up0"].Busy, want)
	}
}
