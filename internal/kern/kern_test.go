package kern

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

func newNode() (*sim.Kernel, *Node) {
	k := sim.NewKernel(1)
	return k, NewNode(k, m68k.DefaultCosts(), "node0")
}

func TestComputeConsumesTime(t *testing.T) {
	k, n := newNode()
	var end sim.Time
	n.SpawnSubprocess("worker", 0, func(sp *Subprocess) {
		sp.Compute(sim.Microseconds(100))
		end = sp.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First dispatch charges one 80 µs context switch + 100 µs work.
	if want := sim.Time(sim.Microseconds(180)); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	tot := n.Totals()
	if tot[CatUser] != sim.Microseconds(100) {
		t.Fatalf("user time = %v", tot[CatUser])
	}
	if tot[CatSystem] != sim.Microseconds(80) {
		t.Fatalf("system time = %v", tot[CatSystem])
	}
}

func TestEqualPriorityRunsFIFOWithoutPreemption(t *testing.T) {
	k, n := newNode()
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		n.SpawnSubprocess(name, 0, func(sp *Subprocess) {
			sp.Compute(sim.Microseconds(50))
			order = append(order, name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b]" {
		t.Fatalf("order = %v", order)
	}
}

func TestPriorityPreemption(t *testing.T) {
	// A high-priority subprocess woken mid-computation preempts the
	// low-priority one (paper §5: the scheduler is preemptive so
	// real-time applications can be implemented).
	k, n := newNode()
	var highDone, lowDone sim.Time
	n.SpawnSubprocess("low", 0, func(sp *Subprocess) {
		sp.Compute(sim.Milliseconds(10))
		lowDone = sp.Now()
	})
	n.SpawnSubprocess("high", 5, func(sp *Subprocess) {
		sp.SleepFor(sim.Milliseconds(1))
		sp.Compute(sim.Microseconds(100))
		highDone = sp.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if highDone >= lowDone {
		t.Fatalf("high finished at %v, low at %v: no preemption", highDone, lowDone)
	}
	// High wakes at 1 ms, pays a context switch, runs 100 µs.
	if want := sim.Time(sim.Milliseconds(1) + sim.Microseconds(180)); highDone != want {
		t.Fatalf("high done at %v, want %v", highDone, want)
	}
	// Low still completes: 80 (switch) + 10000 (work) + 80+100+80
	// (preemption: high's switch, work, and switch back).
	if want := sim.Time(sim.Microseconds(80 + 10000 + 80 + 100 + 80)); lowDone != want {
		t.Fatalf("low done at %v, want %v", lowDone, want)
	}
	if n.CtxSwitches != 3 {
		t.Fatalf("context switches = %d, want 3", n.CtxSwitches)
	}
}

func TestContextSwitchCostIs80Microseconds(t *testing.T) {
	// Paper §5: "A context switch, which includes saving both fixed
	// and floating point registers takes 80 µsec". Two subprocesses
	// hand off via semaphores; each handoff costs one switch.
	k, n := newNode()
	const rounds = 100
	semA := n.NewSemaphore("a", 0)
	semB := n.NewSemaphore("b", 0)
	var start, end sim.Time
	n.SpawnSubprocess("ping", 0, func(sp *Subprocess) {
		start = sp.Now()
		for i := 0; i < rounds; i++ {
			semA.V(sp)
			semB.P(sp)
		}
		end = sp.Now()
	})
	n.SpawnSubprocess("pong", 0, func(sp *Subprocess) {
		for i := 0; i < rounds; i++ {
			semA.P(sp)
			semB.V(sp)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	perRound := end.Sub(start).Microseconds() / rounds
	// Each round: 2 context switches (160) + 4 semaphore ops (32).
	if perRound < 170 || perRound > 210 {
		t.Fatalf("per-round cost %.1f µs, want ~192", perRound)
	}
	if n.CtxSwitches < 2*rounds {
		t.Fatalf("switches = %d, want >= %d", n.CtxSwitches, 2*rounds)
	}
}

func TestSemaphoreFIFOOrder(t *testing.T) {
	k, n := newNode()
	s := n.NewSemaphore("s", 0)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		n.SpawnSubprocess(name, 0, func(sp *Subprocess) {
			s.P(sp)
			order = append(order, name)
		})
	}
	n.SpawnSubprocess("releaser", 0, func(sp *Subprocess) {
		sp.SleepFor(sim.Milliseconds(1))
		for i := 0; i < 3; i++ {
			s.V(sp)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[w1 w2 w3]" {
		t.Fatalf("order = %v", order)
	}
}

func TestInterruptPreemptsAndResumesWithoutSwitch(t *testing.T) {
	k, n := newNode()
	var isrAt, doneAt sim.Time
	n.SpawnSubprocess("worker", 0, func(sp *Subprocess) {
		sp.Compute(sim.Microseconds(1000))
		doneAt = sp.Now()
	})
	k.After(sim.Microseconds(500), func() {
		n.Interrupt(sim.Microseconds(10), func() { isrAt = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// ISR runs at 500 + 25 (entry) + 10 (work) = 535 µs.
	if want := sim.Time(sim.Microseconds(535)); isrAt != want {
		t.Fatalf("isr at %v, want %v", isrAt, want)
	}
	// Worker: 80 switch + 1000 work + 35 interrupt = 1115, with no
	// second context switch.
	if want := sim.Time(sim.Microseconds(1115)); doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	if n.CtxSwitches != 1 {
		t.Fatalf("switches = %d, want 1", n.CtxSwitches)
	}
}

func TestInterruptWakingHigherPrioritySubprocess(t *testing.T) {
	k, n := newNode()
	var events []string
	var wakeHigh Waker
	n.SpawnSubprocess("high", 9, func(sp *Subprocess) {
		wakeHigh = sp.Block(WaitInput)
		sp.BlockNow("device", "")
		sp.Compute(sim.Microseconds(10))
		events = append(events, "high")
	})
	n.SpawnSubprocess("low", 0, func(sp *Subprocess) {
		sp.Compute(sim.Milliseconds(2))
		events = append(events, "low")
	})
	k.After(sim.Milliseconds(1), func() {
		n.Interrupt(sim.Microseconds(5), func() { wakeHigh.Wake() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(events) != "[high low]" {
		t.Fatalf("events = %v", events)
	}
}

func TestIdleCategories(t *testing.T) {
	k, n := newNode()
	n.SpawnSubprocess("reader", 0, func(sp *Subprocess) {
		wake := sp.Block(WaitInput)
		k.After(sim.Milliseconds(1), wake.Wake)
		sp.BlockNow("net-in", "")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tot := n.Totals()
	if tot[CatIdleInput] < sim.Microseconds(900) {
		t.Fatalf("idle-input = %v, want ~1ms", tot[CatIdleInput])
	}
}

func TestIdleMixed(t *testing.T) {
	k, n := newNode()
	n.SpawnSubprocess("in", 0, func(sp *Subprocess) {
		wake := sp.Block(WaitInput)
		k.After(sim.Milliseconds(2), wake.Wake)
		sp.BlockNow("in", "")
	})
	n.SpawnSubprocess("out", 0, func(sp *Subprocess) {
		wake := sp.Block(WaitOutput)
		k.After(sim.Milliseconds(2), wake.Wake)
		sp.BlockNow("out", "")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tot := n.Totals()
	if tot[CatIdleMixed] < sim.Milliseconds(1.5) {
		t.Fatalf("idle-mixed = %v; totals %v", tot[CatIdleMixed], tot)
	}
}

// TestAccountSpansContiguous: the KAccount spans a node reports to its
// tracer tile the node's time without gaps, and a compute-bound
// subprocess produces both system (switch) and user spans.
func TestAccountSpansContiguous(t *testing.T) {
	k, n := newNode()
	tr := trace.New(k)
	tr.Enable()
	n.SetTracer(tr)
	n.SpawnSubprocess("w", 0, func(sp *Subprocess) {
		sp.Compute(sim.Microseconds(50))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Totals() // close final interval
	var spans []trace.Event
	for _, e := range tr.Events() {
		if e.Kind == trace.KAccount {
			spans = append(spans, e)
		}
	}
	if len(spans) < 2 {
		t.Fatalf("spans = %v", spans)
	}
	// Spans must be contiguous and non-overlapping.
	for i := 1; i < len(spans); i++ {
		if prev := spans[i-1]; spans[i].At != prev.At.Add(prev.Dur) {
			t.Fatalf("gap between %+v and %+v", prev, spans[i])
		}
	}
	// Must include a system (switch) and a user span.
	var haveUser, haveSys bool
	for _, e := range spans {
		switch e.Detail {
		case CatUser.String():
			haveUser = true
		case CatSystem.String():
			haveSys = true
		}
	}
	if !haveUser || !haveSys {
		t.Fatalf("missing categories in %v", spans)
	}
}

func TestCoroutineSwitchesAreCheap(t *testing.T) {
	// Paper §5: coroutines have less overhead than subprocesses
	// because most registers need not be saved.
	k, n := newNode()
	const rounds = 50
	var elapsed sim.Duration
	n.SpawnSubprocess("host", 0, func(sp *Subprocess) {
		g := NewCoroutineGroup(sp)
		g.Add(func(c *Coroutine) {
			for i := 0; i < rounds; i++ {
				c.Yield()
			}
		})
		g.Add(func(c *Coroutine) {
			for i := 0; i < rounds; i++ {
				c.Yield()
			}
		})
		start := sp.Now()
		g.Run()
		elapsed = sp.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// ~2*rounds switches at 9 µs — far below the 80 µs/switch a
	// subprocess pair would pay.
	perSwitch := elapsed.Microseconds() / (2 * rounds)
	if perSwitch > 15 {
		t.Fatalf("coroutine switch = %.1f µs, want ~9", perSwitch)
	}
}

func TestCoroutineComputeChargesOwner(t *testing.T) {
	k, n := newNode()
	n.SpawnSubprocess("host", 0, func(sp *Subprocess) {
		g := NewCoroutineGroup(sp)
		g.Add(func(c *Coroutine) { c.Compute(sim.Microseconds(100)) })
		g.Run()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tot := n.Totals()[CatUser]; tot != sim.Microseconds(100) {
		t.Fatalf("user time = %v", tot)
	}
}

func TestCoroutineRoundRobinOrder(t *testing.T) {
	k, n := newNode()
	var order []string
	n.SpawnSubprocess("host", 0, func(sp *Subprocess) {
		g := NewCoroutineGroup(sp)
		for _, name := range []string{"a", "b", "c"} {
			name := name
			g.Add(func(c *Coroutine) {
				for i := 0; i < 2; i++ {
					order = append(order, name)
					c.Yield()
				}
			})
		}
		g.Run()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c a b c]" {
		t.Fatalf("order = %v", order)
	}
}

// TestShutdownKillsParkedCoroutine: one coroutine parks its subprocess
// forever while the other is suspended in Yield. Run reports the
// deadlock, and Shutdown's kill unwinds the parked coroutine and the
// subprocess body; Run stops the yielder on the way out, running its
// deferred calls, and neither coroutine is left behind.
func TestShutdownKillsParkedCoroutine(t *testing.T) {
	for round := 0; round < 3; round++ {
		// Warm the runner pool, so the subprocess takes its runner
		// from it and the count below is exact.
		warm := sim.NewKernel(1)
		warm.Spawn("warm", func(*sim.Proc) {})
		if err := warm.Run(); err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		k, n := newNode()
		unwound := 0
		n.SpawnSubprocess("host", 0, func(sp *Subprocess) {
			g := NewCoroutineGroup(sp)
			g.Add(func(c *Coroutine) {
				defer func() { unwound++ }()
				for {
					c.Yield()
				}
			})
			g.Add(func(c *Coroutine) {
				sp.Block(WaitOther)
				sp.BlockNow("never ", "woken")
			})
			g.Run()
		})
		var dl *sim.DeadlockError
		if err := k.Run(); !errors.As(err, &dl) {
			t.Fatalf("round %d: Run returned %v, want a deadlock", round, err)
		}
		k.Shutdown()
		if unwound != 1 {
			t.Fatalf("round %d: the yielder's deferred call ran %d times, want 1", round, unwound)
		}
		// The killed subprocess's runner exits with it.
		if got := runtime.NumGoroutine(); got != base-1 {
			t.Fatalf("round %d: %d goroutines after Shutdown, want %d (%d before the run, less the killed runner)", round, got, base-1, base)
		}
	}
}

func TestSyscallChargesOverheadPlusWork(t *testing.T) {
	k, n := newNode()
	var end sim.Time
	n.SpawnSubprocess("w", 0, func(sp *Subprocess) {
		sp.Syscall(sim.Microseconds(10))
		end = sp.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 80 switch + 18 syscall + 10 work.
	if want := sim.Time(sim.Microseconds(108)); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestInterruptsQueueWhileServicing(t *testing.T) {
	k, n := newNode()
	var order []int
	k.After(0, func() {
		n.Interrupt(sim.Microseconds(100), func() { order = append(order, 1) })
		n.Interrupt(sim.Microseconds(10), func() { order = append(order, 2) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2]" {
		t.Fatalf("order = %v", order)
	}
	if n.Interrupts != 2 {
		t.Fatalf("interrupts = %d", n.Interrupts)
	}
}

func TestTotalsSumMatchesElapsed(t *testing.T) {
	k, n := newNode()
	n.SpawnSubprocess("w", 0, func(sp *Subprocess) {
		sp.Compute(sim.Microseconds(300))
		sp.SleepFor(sim.Microseconds(200))
		sp.System(sim.Microseconds(100))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var sum sim.Duration
	for _, d := range n.Totals() {
		sum += d
	}
	if sum != k.Now().Sub(0) {
		t.Fatalf("accounted %v, elapsed %v", sum, k.Now())
	}
}

func TestPerSubprocessCPUAccounting(t *testing.T) {
	k, n := newNode()
	var spA, spB *Subprocess
	spA = n.SpawnSubprocess("a", 0, func(sp *Subprocess) {
		sp.Compute(sim.Microseconds(100))
		sp.System(sim.Microseconds(50))
	})
	spB = n.SpawnSubprocess("b", 0, func(sp *Subprocess) {
		sp.Compute(sim.Microseconds(300))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ua, sa := cpuTime(spA)
	ub, sb := cpuTime(spB)
	if ua != sim.Microseconds(100) {
		t.Errorf("a user = %v", ua)
	}
	// a: 80 (first switch) + 50 system work + 80 (switch back after
	// b's FIFO slice ran between a's two requests).
	if sa != sim.Microseconds(210) {
		t.Errorf("a system = %v", sa)
	}
	if ub != sim.Microseconds(300) {
		t.Errorf("b user = %v", ub)
	}
	// b: one switch from a.
	if sb != sim.Microseconds(80) {
		t.Errorf("b system = %v", sb)
	}
	// Node totals equal the per-subprocess sums.
	tot := n.Totals()
	if tot[CatUser] != ua+ub || tot[CatSystem] != sa+sb {
		t.Errorf("totals %v vs per-sp sums %v/%v", tot, ua+ub, sa+sb)
	}
}

func TestCPUAccountingSurvivesPreemption(t *testing.T) {
	k, n := newNode()
	var low *Subprocess
	low = n.SpawnSubprocess("low", 0, func(sp *Subprocess) {
		sp.Compute(sim.Milliseconds(5))
	})
	n.SpawnSubprocess("high", 9, func(sp *Subprocess) {
		sp.SleepFor(sim.Milliseconds(1))
		sp.Compute(sim.Microseconds(100))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	u, _ := cpuTime(low)
	if u != sim.Milliseconds(5) {
		t.Fatalf("low user time = %v despite preemption", u)
	}
}

func TestThreePriorityLevels(t *testing.T) {
	k, n := newNode()
	var order []string
	mark := func(name string) { order = append(order, name) }
	// All become ready at t=1ms while a long low job runs.
	n.SpawnSubprocess("low", 0, func(sp *Subprocess) {
		sp.Compute(sim.Milliseconds(5))
		mark("low")
	})
	for _, c := range []struct {
		name string
		prio int
	}{{"mid", 5}, {"high", 9}} {
		c := c
		n.SpawnSubprocess(c.name, c.prio, func(sp *Subprocess) {
			sp.SleepFor(sim.Milliseconds(1))
			sp.Compute(sim.Microseconds(100))
			mark(c.name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[high mid low]" {
		t.Fatalf("order = %v", order)
	}
}

func TestInterruptDuringIdle(t *testing.T) {
	k, n := newNode()
	fired := sim.Time(-1)
	k.After(sim.Milliseconds(1), func() {
		n.Interrupt(sim.Microseconds(5), func() { fired = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Milliseconds(1) + sim.Microseconds(30)); fired != want {
		t.Fatalf("isr at %v, want %v", fired, want)
	}
	tot := n.Totals()
	if tot[CatSystem] != sim.Microseconds(30) {
		t.Fatalf("system = %v", tot[CatSystem])
	}
}

func TestZeroAndNegativeComputeAreFree(t *testing.T) {
	k, n := newNode()
	var end sim.Time
	n.SpawnSubprocess("w", 0, func(sp *Subprocess) {
		sp.Compute(0)
		sp.Compute(-5)
		sp.System(0)
		end = sp.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Fatalf("free operations consumed %v", end)
	}
}

func TestCategoriesStringAndList(t *testing.T) {
	if CatUser.String() != "user" || CatIdleMixed.String() != "idle-mixed" {
		t.Fatal("category names")
	}
	if len(Categories()) != 6 {
		t.Fatalf("categories = %v", Categories())
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category should still print")
	}
}

// cpuTime returns the user and system CPU the subprocess has consumed
// (system time includes context switches performed on its behalf).
func cpuTime(sp *Subprocess) (user, system sim.Duration) {
	if sp.task == nil {
		return 0, 0
	}
	return sp.task.user, sp.task.system
}

func TestSubprocessAccessors(t *testing.T) {
	k, n := newNode()
	n.SpawnSubprocess("acc", 3, func(sp *Subprocess) {
		if sp.name != "acc" || sp.prio != 3 || sp.Node() != n {
			t.Error("accessors broken")
		}
		if sp.Proc() == nil {
			t.Error("proc handle missing")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.subs) != 1 {
		t.Fatalf("subprocesses = %d", len(n.subs))
	}
}

func TestInterruptLevelProgramming(t *testing.T) {
	// Paper §5's third structuring technique: "a single subprocess
	// starts application-specific input and output interrupt service
	// routines and then suspends itself. The entire computation is
	// done by the interrupt service routines. This technique runs
	// efficiently in VORX because it does not incur the overhead of
	// restoring or saving registers."
	k, n := newNode()
	results := 0
	var chain func(i int)
	chain = func(i int) {
		n.Interrupt(sim.Microseconds(15), func() {
			results++
			if i+1 < 50 {
				k.After(sim.Microseconds(100), func() { chain(i + 1) })
			}
		})
	}
	n.SpawnSubprocess("app", 0, func(sp *Subprocess) {
		// Start the ISR-driven computation, then suspend forever.
		k.After(sim.Microseconds(10), func() { chain(0) })
		wake := sp.Block(WaitOther)
		_ = wake // never woken: the ISRs do all the work
		sp.Proc().SetDaemon(true)
		sp.BlockNow("suspended", "")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if results != 50 {
		t.Fatalf("ISR computation produced %d results", results)
	}
	// No context switches beyond the initial dispatch: the suspended
	// subprocess never resumes, and ISRs save no register image.
	if n.CtxSwitches > 1 {
		t.Fatalf("context switches = %d; interrupt-level code should avoid them", n.CtxSwitches)
	}
	// Per-event system time: 25 entry + 15 handler = 40 µs each.
	if got := n.Totals()[CatSystem]; got != 50*sim.Microseconds(40) {
		t.Fatalf("system time = %v", got)
	}
}

// TestNestedWaitKeepsParkReason: a subprocess that arms a wait and
// then waits for the CPU before it parks, as an open does when its
// request send charges kernel time, still parks with the reason it
// gives, so the deadlock report names what it waits for.
func TestNestedWaitKeepsParkReason(t *testing.T) {
	k, n := newNode()
	n.SpawnSubprocess("opener", 0, func(sp *Subprocess) {
		sp.Block(WaitOther) // never woken
		sp.System(10 * sim.Microsecond)
		sp.BlockNow("open ", "x")
	})
	defer k.Shutdown()
	var dl *sim.DeadlockError
	if err := k.Run(); !errors.As(err, &dl) || len(dl.Procs) != 1 {
		t.Fatalf("Run = %v, want the opener deadlocked", err)
	}
	if got, want := dl.Procs[0].Reason, "open x"; got != want {
		t.Fatalf("opener parked as %q, want %q", got, want)
	}
}
