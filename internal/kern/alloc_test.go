package kern

import (
	"testing"

	"hpcvorx/internal/sim"
)

// Allocation guards for the CPU path: once a node's records are warm
// (the subprocess's task, the segment callback, the interrupt
// completions and queue), CPU requests and interrupts allocate nothing.

// TestSyscallSystemZeroAllocWarm: a subprocess alone on its node loops
// Syscall + System; each cycle advances the clock by exactly one loop.
func TestSyscallSystemZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	k, n := newNode()
	const work = 10 * sim.Microsecond
	loops := 0
	sp := n.SpawnSubprocess("looper", 0, func(sp *Subprocess) {
		for {
			sp.Syscall(0)
			sp.System(work)
			loops++
		}
	})
	defer k.Shutdown()
	period := n.Costs().Syscall + work
	k.RunFor(n.Costs().ContextSwitch) // first dispatch pays the switch
	for i := 0; i < 64; i++ {
		k.RunFor(period)
	}
	before := loops
	allocs := testing.AllocsPerRun(500, func() { k.RunFor(period) })
	if loops-before != 501 { // AllocsPerRun adds one warm-up call
		t.Fatalf("%d loops in 501 periods", loops-before)
	}
	if allocs != 0 {
		t.Fatalf("warm Syscall+System allocates %v/op, want 0", allocs)
	}
	if user, sys := cpuTime(sp); user != 0 || sys == 0 {
		t.Fatalf("CPU time user=%v system=%v", user, sys)
	}
}

// TestSleepForZeroAllocWarm: a subprocess alone on its node loops
// SleepFor; once its first sleep has built the reason and the wake
// callback, each sleep allocates nothing.
func TestSleepForZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	k, n := newNode()
	const nap = 10 * sim.Microsecond
	naps := 0
	n.SpawnSubprocess("sleeper", 0, func(sp *Subprocess) {
		for {
			sp.SleepFor(nap)
			naps++
		}
	})
	defer k.Shutdown()
	for i := 0; i < 64; i++ {
		k.RunFor(nap)
	}
	before := naps
	allocs := testing.AllocsPerRun(500, func() { k.RunFor(nap) })
	if naps-before != 501 { // AllocsPerRun adds one warm-up call
		t.Fatalf("%d sleeps in 501 naps", naps-before)
	}
	if allocs != 0 {
		t.Fatalf("warm SleepFor allocates %v/op, want 0", allocs)
	}
}

// TestInterruptZeroAllocWarm raises interrupts with tracing off, both on
// an idle CPU and preempting a running subprocess.
func TestInterruptZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	k, n := newNode()
	served := 0
	isr := func() { served++ }
	idle := func() {
		n.Interrupt(5*sim.Microsecond, isr)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		idle()
	}
	if allocs := testing.AllocsPerRun(500, idle); allocs != 0 {
		t.Fatalf("warm Interrupt on an idle CPU allocates %v/op, want 0", allocs)
	}

	n.SpawnSubprocess("busy", 0, func(sp *Subprocess) {
		for {
			sp.Compute(sim.Millisecond)
		}
	})
	defer k.Shutdown()
	busy := func() {
		n.Interrupt(5*sim.Microsecond, isr)
		n.Interrupt(3*sim.Microsecond, isr) // queues behind the first
		k.RunFor(100 * sim.Microsecond)
	}
	for i := 0; i < 64; i++ {
		busy()
	}
	if allocs := testing.AllocsPerRun(500, busy); allocs != 0 {
		t.Fatalf("warm Interrupt preempting a subprocess allocates %v/op, want 0", allocs)
	}
	if want := 64 + 501 + 2*(64+501); served != want {
		t.Fatalf("served %d interrupts, want %d", served, want)
	}
}
