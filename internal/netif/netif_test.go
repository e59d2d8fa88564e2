package netif_test

import (
	"fmt"
	"testing"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

func rig(t *testing.T) (*sim.Kernel, *hpc.Interconnect, [2]*netif.IF, [2]*kern.Node) {
	t.Helper()
	k := sim.NewKernel(1)
	costs := m68k.DefaultCosts()
	tp, err := topo.SingleCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	ic := hpc.New(k, costs, tp)
	var ifs [2]*netif.IF
	var nodes [2]*kern.Node
	for i := 0; i < 2; i++ {
		nodes[i] = kern.NewNode(k, costs, "n")
		ifs[i] = netif.Attach(nodes[i], ic, topo.EndpointID(i))
	}
	return k, ic, ifs, nodes
}

func TestDispatchToService(t *testing.T) {
	k, _, ifs, _ := rig(t)
	var got any
	ifs[1].Register("svc", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return sim.Microseconds(10) },
		Handle: func(m *hpc.Message) { got = m.Payload },
	})
	ifs[0].SendAsync(1, "svc", 64, "payload", nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("got %v", got)
	}
}

func TestISRCostChargedToNode(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	ifs[1].Register("svc", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return sim.Microseconds(100) },
		Handle: func(*hpc.Message) {},
	})
	ifs[0].SendAsync(1, "svc", 64, nil, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Interrupt entry (25) + declared cost (100) as system time.
	if got := nodes[1].Totals()[kern.CatSystem]; got != sim.Microseconds(125) {
		t.Fatalf("system time = %v, want 125µs", got)
	}
	if nodes[1].Interrupts != 1 {
		t.Fatalf("interrupts = %d", nodes[1].Interrupts)
	}
}

// A frame whose tag names no registered service is counted as dropped
// and frees its input section, so the frames queued behind it at the
// one-slot section still arrive. Two of the unknown tags are a prefix
// and an extension of registered ones: the table matches whole tags.
func TestUnknownServiceDropped(t *testing.T) {
	k, _, ifs, _ := rig(t)
	var got []any
	for _, tag := range []string{"svc.a", "svc"} {
		ifs[1].Register(tag, netif.Service{
			Cost:   func(*hpc.Message) sim.Duration { return sim.Microseconds(10) },
			Handle: func(m *hpc.Message) { got = append(got, m.Payload) },
		})
	}
	for _, tag := range []string{"sv", "svc.ab", "nobody-home", "svc", "svc.a"} {
		ifs[0].SendAsync(1, tag, 64, tag, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ifs[1].Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", ifs[1].Dropped)
	}
	if fmt.Sprint(got) != "[svc svc.a]" {
		t.Fatalf("delivered %v, want [svc svc.a]", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	_, _, ifs, _ := rig(t)
	ifs[0].Register("dup", netif.Service{Cost: func(*hpc.Message) sim.Duration { return 0 }, Handle: func(*hpc.Message) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	ifs[0].Register("dup", netif.Service{})
}

func TestSendBlocksOnOutputSection(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	// A receiver that never releases its input section backs the
	// fabric up; the third blocking Send must wait for room.
	delivered := 0
	ifs[1].Register("slow", netif.Service{
		NoInterrupt: true,
		HandleRaw:   func(d *hpc.Delivery) { delivered++ /* never release */ },
	})
	sent := 0
	nodes[0].SpawnSubprocess("sender", 0, func(sp *kern.Subprocess) {
		for i := 0; i < 5; i++ {
			if err := ifs[0].Send(sp, 1, "slow", 1000, nil); err != nil {
				t.Error(err)
			}
			sent++
		}
	})
	k.RunFor(sim.Seconds(1))
	if sent >= 5 {
		t.Fatalf("sent %d messages into a wedged fabric", sent)
	}
	k.Shutdown()
}

func TestSendAsyncRetriesOnRoomAvailable(t *testing.T) {
	k, ic, ifs, _ := rig(t)
	var deliveries []*hpc.Delivery
	ifs[1].Register("hold", netif.Service{
		NoInterrupt: true,
		HandleRaw:   func(d *hpc.Delivery) { deliveries = append(deliveries, d) },
	})
	// Fill the fabric: input section + cluster buffer + output section.
	for i := 0; i < 4; i++ {
		ifs[0].SendAsync(1, "hold", 1000, i, nil)
	}
	k.RunFor(sim.Milliseconds(10))
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1 (rest queued in hardware)", len(deliveries))
	}
	// Drain one: the room-available retry should push the next through.
	deliveries[0].Release()
	k.RunFor(sim.Milliseconds(10))
	if len(deliveries) != 2 {
		t.Fatalf("deliveries after release = %d, want 2", len(deliveries))
	}
	_ = ic
}

func TestPolledServiceCostsNothing(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	ifs[1].Register("polled", netif.Service{
		NoInterrupt: true,
		HandleRaw:   func(d *hpc.Delivery) { d.Release() },
	})
	ifs[0].SendAsync(1, "polled", 100, nil, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].Totals()[kern.CatSystem]; got != 0 {
		t.Fatalf("polled delivery charged %v CPU", got)
	}
	if nodes[1].Interrupts != 0 {
		t.Fatalf("polled delivery raised %d interrupts", nodes[1].Interrupts)
	}
}

// TestCrashedNodeDrainsDeliveries: messages to a dead node are drained
// by the hardware (DroppedDead), its handlers never run, and the
// fabric keeps flowing — a crash must not wedge the interconnect.
func TestCrashedNodeDrainsDeliveries(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	handled := 0
	ifs[1].Register("svc", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return sim.Microseconds(10) },
		Handle: func(m *hpc.Message) { handled++ },
	})
	nodes[1].Crash()
	for i := 0; i < 3; i++ {
		ifs[0].SendAsync(1, "svc", 64, i, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 0 {
		t.Fatalf("dead node handled %d messages", handled)
	}
	if ifs[1].DroppedDead != 3 {
		t.Fatalf("DroppedDead = %d, want 3", ifs[1].DroppedDead)
	}
}

// TestCrashReleasesPendingDeliveries: a message whose interrupt is
// still pending when the node crashes is released (not leaked), so the
// sender's next message is not blocked forever.
func TestCrashReleasesPendingDeliveries(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	handled := 0
	ifs[1].Register("svc", netif.Service{
		// Interrupt service is slow: 1 ms per message.
		Cost:   func(*hpc.Message) sim.Duration { return sim.Milliseconds(1) },
		Handle: func(m *hpc.Message) { handled++ },
	})
	delivered := 0
	for i := 0; i < 2; i++ {
		ifs[0].SendAsync(1, "svc", 64, i, func() { delivered++ })
	}
	// Crash while the first message's ISR is still accruing cost.
	k.After(sim.Microseconds(100), func() { nodes[1].Crash() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 0 {
		t.Fatalf("handler ran %d times after crash", handled)
	}
	if delivered != 2 {
		t.Fatalf("fabric delivered %d of 2 (input section wedged?)", delivered)
	}
	if ifs[1].DroppedDead == 0 {
		t.Fatal("pending delivery must be drained on crash")
	}
}

// TestRoomInterruptOrder pins who goes first when a full output
// section frees. The section's waiters register in the order P1 (a
// blocked Send of A), the SendAsync retries of B and C, P2 (a blocked
// Send of D), and R, a room handler that stands in for a retry and
// registers again whenever it finds the section full. Each free fires
// exactly the waiters registered before it, in order, but only a retry
// sends inside the interrupt; a woken proc sends when it next runs, by
// when a retry may have taken the room. So the deliveries are not in
// registration order, and R, refused at two frees, fires once at each
// free and never twice within one.
func TestRoomInterruptOrder(t *testing.T) {
	k, ic, ifs, nodes := rig(t)
	var got []string
	ifs[1].Register("svc", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return sim.Microseconds(10) },
		Handle: func(m *hpc.Message) { got = append(got, m.Payload.(string)) },
	})
	send := func(name, body string) {
		nodes[0].SpawnSubprocess(name, 0, func(sp *kern.Subprocess) {
			if err := ifs[0].Send(sp, 1, "svc", 64, body); err != nil {
				t.Error(err)
			}
		})
	}
	// m0 takes the output section; everything after it waits for room.
	ifs[0].SendAsync(1, "svc", 64, "m0", nil)
	send("p1", "A")
	k.After(0, func() {
		ifs[0].SendAsync(1, "svc", 64, "B", nil)
		ifs[0].SendAsync(1, "svc", 64, "C", nil)
	})
	send("p2", "D")
	var fires []sim.Time
	var probe func()
	probe = func() {
		fires = append(fires, k.Now())
		if !ic.OutputFree(0) {
			ic.NotifyRoom(0, probe)
		}
	}
	k.After(0, func() { ic.NotifyRoom(0, probe) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[m0 B C A D]"; fmt.Sprint(got) != want {
		t.Fatalf("delivery order %v, want %s", got, want)
	}
	if len(fires) != 3 || !(fires[0] < fires[1] && fires[1] < fires[2]) {
		t.Fatalf("R fired at %v, want once at each of three frees", fires)
	}
}
