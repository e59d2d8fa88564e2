package hpc

import (
	"testing"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// TestSendPathZeroAllocSteadyState is the allocation guard for the
// fabric's hot path: once the transfer pool, event pool, and route
// cache are warm, a full send/hop/deliver/release cycle allocates
// nothing on the Go heap.
func TestSendPathZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool.Put drop items at random,
		// so allocation counts are meaningless under -race.
		t.Skip("allocation counts are not stable under the race detector")
	}
	k := sim.NewKernel(1)
	tp, err := topo.IncompleteHypercube(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ic := New(k, m68k.DefaultCosts(), tp)
	// Cross-cluster message; no deliver handler, so the fabric drains
	// the input section itself.
	msg := &Message{Src: 0, Dst: topo.EndpointID(tp.Endpoints() - 1), Size: 512}
	cycle := func() {
		ok, err := ic.TrySend(msg, nil)
		if err != nil || !ok {
			t.Fatalf("TrySend: ok=%v err=%v", ok, err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs != 0 {
		t.Fatalf("warm send path allocates %v/op, want 0", allocs)
	}
}

// TestTransferPoolSurvivesLateRelease exercises the out-of-order
// lifetime: the receiver holds the Delivery past the sender's next
// message, so recycling must wait for the release.
func TestTransferPoolSurvivesLateRelease(t *testing.T) {
	k := sim.NewKernel(1)
	tp, err := topo.SingleCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	ic := New(k, m68k.DefaultCosts(), tp)
	var held []*Delivery
	seen := 0
	ic.SetDeliver(1, func(d *Delivery) {
		seen++
		held = append(held, d) // release later, out of band
	})
	for i := 0; i < 8; i++ {
		if ok, err := ic.TrySend(&Message{Src: 0, Dst: 2, Size: 64}, nil); err != nil || !ok {
			t.Fatalf("send %d: ok=%v err=%v", i, ok, err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := ic.TrySend(&Message{Src: 0, Dst: 1, Size: 64}, nil); err != nil || !ok {
		t.Fatalf("held send: ok=%v err=%v", ok, err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("endpoint 1 saw %d deliveries, want 1", seen)
	}
	// A second message to the held endpoint must park until release.
	arrived := false
	ic.SetDeliver(1, func(d *Delivery) { arrived = true; d.Release() })
	if ok, err := ic.TrySend(&Message{Src: 0, Dst: 1, Size: 64}, nil); err != nil || !ok {
		t.Fatalf("parked send: ok=%v err=%v", ok, err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived {
		t.Fatal("second delivery bypassed the held input section")
	}
	held[0].Release()
	held[0].Release() // double release stays a no-op
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !arrived {
		t.Fatal("second delivery never arrived after release")
	}
}

// TestBlockedSendZeroAlloc: a proc whose Send finds its output section
// full waits for the room-available interrupt as a park token on the
// endpoint's waiter list, which keeps its storage, so once warm a
// blocked send allocates nothing.
func TestBlockedSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	k := sim.NewKernel(1)
	tp, err := topo.SingleCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	ic := New(k, m68k.DefaultCosts(), tp)
	msg := &Message{Src: 0, Dst: 1, Size: 512}
	sent, blocked := 0, 0
	k.Spawn("sender", func(p *sim.Proc) {
		for {
			// The previous message still holds the output section
			// until its first hop ends, so every Send waits.
			if !ic.OutputFree(0) {
				blocked++
			}
			if err := ic.Send(p, msg, nil); err != nil {
				t.Error(err)
				return
			}
			sent++
		}
	})
	defer k.Shutdown()
	cycle := func() {
		for want := sent + 1; sent < want; {
			k.RunFor(sim.Microsecond)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if blocked < 60 {
		t.Fatalf("only %d of %d sends waited for room; scenario is vacuous", blocked, sent)
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("warm blocked Send allocates %v/op, want 0", allocs)
	}
}
