package hpc

import (
	"fmt"
	"runtime"
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
// blocked send allocates nothing. Nor, on each endpoint of a fresh
// fabric, does its first send, whose up-link queue starts with room
// for one transfer, or its first blocked send: its park reason is the
// output section's own name, and each waiter list starts with room for
// one waiter.
func TestBlockedSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	coldBlockedSends(t)
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

// coldBlockedSends is TestBlockedSendZeroAlloc's cold case. On a fresh
// one-cluster fabric, endpoint 0 warms the transfer and event pools and
// the path into the last endpoint; then every other endpoint sends to
// it twice, and neither the first send, its up-link's first request,
// nor the second, that endpoint's first to wait for room, may
// allocate.
func coldBlockedSends(t *testing.T) {
	k := sim.NewKernel(1)
	tp, err := topo.SingleCluster(topo.PortsPerCluster)
	if err != nil {
		t.Fatal(err)
	}
	ic := New(k, m68k.DefaultCosts(), tp)
	n := tp.Endpoints()
	msgs := make([]Message, n)
	for e := range msgs {
		msgs[e] = Message{Src: topo.EndpointID(e), Dst: topo.EndpointID(n - 1), Size: 512}
	}
	var firstMallocs, mallocs uint64
	waited := 0
	k.Spawn("sender", func(p *sim.Proc) {
		send := func(e int) {
			if err := ic.Send(p, &msgs[e], nil); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 8; i++ {
			send(0)
			send(0)
			p.Sleep(sim.Millisecond) // both reach the sink
		}
		var before, after runtime.MemStats
		for e := 1; e < n-1; e++ {
			runtime.ReadMemStats(&before)
			send(e) // takes the free output section
			runtime.ReadMemStats(&after)
			firstMallocs += after.Mallocs - before.Mallocs
			if !ic.OutputFree(topo.EndpointID(e)) {
				waited++
			}
			runtime.ReadMemStats(&before)
			send(e)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			p.Sleep(sim.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != n-2 {
		t.Fatalf("%d of %d cold sends waited for room; scenario is vacuous", waited, n-2)
	}
	if firstMallocs != 0 {
		t.Fatalf("the first Send on each of %d fresh endpoints allocates %d objects in all, want 0", n-2, firstMallocs)
	}
	if mallocs != 0 {
		t.Fatalf("the first blocked Send on each of %d fresh endpoints allocates %d objects in all, want 0", n-2, mallocs)
	}
}

// TestShardBoundaryHopZeroAlloc is the allocation guard for the
// sharded hand-off: once warm, a boundary hop and its three signals
// (arrive, hop done, freed) allocate nothing, so a 2-shard run with
// twice the crossings allocates no more than one with half, whatever a
// run itself costs. The messages are caller-built: msgPool shells are
// refilled on the receiving shard, so pooled ones would count as
// allocations on the sender.
func TestShardBoundaryHopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	top, err := topo.IncompleteHypercube(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := newShardedFabric(top, 2)
	// Endpoint 0 (cluster 0, shard 0) and endpoint 4 (cluster 1,
	// shard 1) send to each other: every message crosses the boundary
	// once, in one direction or the other.
	eps := [2]topo.EndpointID{0, 4}
	delivered := [2]int{}
	var sends [2]func()
	for i, ic := range f.ics {
		ic.SetDeliver(eps[i], func(d *Delivery) {
			delivered[i]++
			d.Release()
		})
		msg := &Message{Src: eps[i], Dst: eps[1-i], Size: 512}
		sends[i] = func() {
			if ok, err := ic.TrySend(msg, nil); err != nil || !ok {
				panic(fmt.Sprintf("TrySend: ok=%v err=%v", ok, err))
			}
		}
	}
	// Sends are spaced far enough apart that each is delivered before
	// the next one leaves, so one Message per direction serves them all.
	const gap = 100 * sim.Microsecond
	runWith := func(n int) func() {
		return func() {
			for i, ic := range f.ics {
				now := ic.k.Now()
				for j := 1; j <= n; j++ {
					ic.k.At(now.Add(sim.Duration(j)*gap), sends[i])
				}
			}
			if err := f.g.Run(); err != nil {
				panic(err)
			}
		}
	}
	const n = 16
	small, large := runWith(n), runWith(2*n)
	for i := 0; i < 8; i++ {
		small()
		large()
	}
	before := f.ics[0].Stats().HandoffsOut + f.ics[1].Stats().HandoffsOut
	allocSmall := testing.AllocsPerRun(50, small)
	allocLarge := testing.AllocsPerRun(50, large)
	crossed := f.ics[0].Stats().HandoffsOut + f.ics[1].Stats().HandoffsOut - before
	// AllocsPerRun adds one warm-up call to each measured set.
	if want := 2 * (51*n + 51*2*n); crossed != want {
		t.Fatalf("%d boundary crossings, want %d", crossed, want)
	}
	if got, want := delivered[0]+delivered[1], 2*(8+51)*3*n; got != want {
		t.Fatalf("%d deliveries, want %d", got, want)
	}
	t.Logf("allocations per run: %v at %d boundary crossings, %v at %d", allocSmall, 2*n, allocLarge, 4*n)
	if allocLarge > allocSmall {
		t.Fatalf("a run with %d boundary crossings allocates %v, one with %d allocates %v: the hand-off allocates",
			4*n, allocLarge, 2*n, allocSmall)
	}
}
