package netif_test

import (
	"fmt"
	"testing"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
)

// TestCoalescedBatchChargesOneEntry: under receive-interrupt
// coalescing a burst of deliveries is drained by fewer interrupts than
// messages, and the virtual-time accounting is exactly one
// interrupt-entry plus one full service cost per batch, plus the
// copy-only BatchCost for every rider. Whatever way the arrivals
// happen to batch, interrupts + coalesced must equal the message count
// and the node's system time must match the formula — there is no
// per-rider entry charge.
func TestCoalescedBatchChargesOneEntry(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	const (
		msgs      = 6
		fullCost  = sim.Duration(100 * sim.Microsecond)
		rideCost  = sim.Duration(30 * sim.Microsecond)
		entryCost = sim.Duration(25 * sim.Microsecond) // m68k InterruptEntry
	)
	handled := 0
	ifs[1].SetCoalesce(0)
	ifs[1].Register("svc", netif.Service{
		Cost:      func(*hpc.Message) sim.Duration { return fullCost },
		BatchCost: func(*hpc.Message) sim.Duration { return rideCost },
		Handle:    func(*hpc.Message) { handled++ },
	})
	for i := 0; i < msgs; i++ {
		ifs[0].SendAsync(1, "svc", 64, i, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != msgs {
		t.Fatalf("handled %d of %d", handled, msgs)
	}
	intr := nodes[1].Interrupts
	coal := ifs[1].CoalescedIntr
	if intr+coal != msgs {
		t.Fatalf("interrupts(%d) + coalesced(%d) != %d messages", intr, coal, msgs)
	}
	if coal == 0 {
		t.Fatal("burst arrivals during a busy drain must coalesce; scenario is vacuous")
	}
	want := sim.Duration(intr)*(entryCost+fullCost) + sim.Duration(coal)*rideCost
	if got := nodes[1].Totals()[kern.CatSystem]; got != want {
		t.Fatalf("system time = %v, want %v (%d batches x (entry+full) + %d riders x copy)",
			got, want, intr, coal)
	}
}

// TestCoalesceOffIsClassic: without SetCoalesce every delivery raises
// its own interrupt and pays entry + full cost — byte-identical
// accounting to the pre-coalescing driver.
func TestCoalesceOffIsClassic(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	const msgs = 4
	ifs[1].Register("svc", netif.Service{
		Cost:      func(*hpc.Message) sim.Duration { return 100 * sim.Microsecond },
		BatchCost: func(*hpc.Message) sim.Duration { return 30 * sim.Microsecond },
		Handle:    func(*hpc.Message) {},
	})
	for i := 0; i < msgs; i++ {
		ifs[0].SendAsync(1, "svc", 64, i, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if nodes[1].Interrupts != msgs || ifs[1].CoalescedIntr != 0 {
		t.Fatalf("interrupts=%d coalesced=%d, want %d/0", nodes[1].Interrupts, ifs[1].CoalescedIntr, msgs)
	}
	if got, want := nodes[1].Totals()[kern.CatSystem], sim.Duration(msgs)*125*sim.Microsecond; got != want {
		t.Fatalf("system time = %v, want %v", got, want)
	}
}

// TestCoalescedBatchFreedOnCrash: messages read out of the hardware
// but still waiting for their drain interrupt are discarded when the
// node dies — counted dead, never handled, and the batch machinery
// rearms cleanly after restart.
func TestCoalescedBatchFreedOnCrash(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	handled := 0
	ifs[1].SetCoalesce(10 * sim.Millisecond) // wide horizon: batch sits armed
	ifs[1].Register("svc", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return 100 * sim.Microsecond },
		Handle: func(*hpc.Message) { handled++ },
	})
	for i := 0; i < 3; i++ {
		ifs[0].SendAsync(1, "svc", 64, i, nil)
	}
	k.After(time2ms, func() { nodes[1].Crash() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 0 {
		t.Fatalf("handled %d messages that should have died with the node", handled)
	}
	if ifs[1].DroppedDead != 3 {
		t.Fatalf("DroppedDead = %d, want 3", ifs[1].DroppedDead)
	}
	// The interface must be usable again after restart.
	nodes[1].Restart()
	ifs[0].SendAsync(1, "svc", 64, 99, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Fatalf("post-restart delivery handled %d, want 1", handled)
	}
}

// TestCoalescedDrainFreedOnCrash: a crash while a drain interrupt is
// queued or running loses that drain's messages as well as the batch
// accumulating behind it, and counts every one of them dead. Here the
// first message's drain is running (a 500 µs service time) and the
// other two wait in the batch when the node dies.
func TestCoalescedDrainFreedOnCrash(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	handled := 0
	ifs[1].SetCoalesce(0)
	ifs[1].Register("svc", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return 500 * sim.Microsecond },
		Handle: func(*hpc.Message) { handled++ },
	})
	for i := 0; i < 3; i++ {
		ifs[0].SendAsync(1, "svc", 64, i, nil)
	}
	k.After(130*sim.Microsecond, func() { nodes[1].Crash() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 0 || ifs[1].DroppedDead != 3 {
		t.Fatalf("handled=%d DroppedDead=%d, want 0 and 3", handled, ifs[1].DroppedDead)
	}
}

// TestCoalescedDrainRestartBeforeEnd: kern still runs a drain
// interrupt whose service time ends after the node has crashed and
// restarted. The crash already emptied that drain, so it handles
// nothing, and it must not drain the batch raised after the restart
// either: that batch waits for its own interrupt's full service time.
func TestCoalescedDrainRestartBeforeEnd(t *testing.T) {
	k, _, ifs, nodes := rig(t)
	var handled []int
	var at []sim.Time
	ifs[1].SetCoalesce(0)
	ifs[1].Register("svc", netif.Service{
		Cost: func(*hpc.Message) sim.Duration { return 500 * sim.Microsecond },
		Handle: func(m *hpc.Message) {
			handled = append(handled, m.Payload.(int))
			at = append(at, k.Now())
		},
	})
	for i := 0; i < 3; i++ {
		ifs[0].SendAsync(1, "svc", 64, i, nil)
	}
	const restart = 140 * sim.Microsecond
	k.After(130*sim.Microsecond, func() { nodes[1].Crash() })
	k.After(restart, func() {
		nodes[1].Restart()
		for i := 10; i < 13; i++ {
			ifs[0].SendAsync(1, "svc", 64, i, nil)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(handled) != "[10 11 12]" || ifs[1].DroppedDead != 3 {
		t.Fatalf("handled %v with DroppedDead=%d, want [10 11 12] and 3", handled, ifs[1].DroppedDead)
	}
	// No message sent at the restart can be handled before a drain
	// raised after it has run its interrupt entry and service cost.
	earliest := sim.Time(0).Add(restart + 525*sim.Microsecond)
	if at[0] < earliest {
		t.Fatalf("message 10 handled at %v, before a post-restart drain could end (%v)", at[0], earliest)
	}
}

const time2ms = 2 * sim.Millisecond
