package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvances(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	k.Spawn("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(10 * Microsecond)
		at = append(at, p.Now())
		p.Sleep(Microseconds(2.5))
		at = append(at, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Time(10 * Microsecond), Time(Microseconds(12.5))}
	if len(at) != len(want) {
		t.Fatalf("got %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("step %d: at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestEventsFireInOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.After(5*Microsecond, func() { order = append(order, 2) })
	k.After(1*Microsecond, func() { order = append(order, 1) })
	k.After(5*Microsecond, func() { order = append(order, 3) }) // same time: seq order
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(Microsecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(Microsecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	if tm.Pending() {
		t.Fatal("fired timer should not be pending")
	}
}

func TestSpawnOrderingAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) { order = append(order, name) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("order = %v", order)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		q := NewQueue[int]("q")
		for i := 0; i < 3; i++ {
			i := i
			k.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					q.Put(i*10 + j)
					p.Sleep(Duration(i+1) * Microsecond)
				}
			})
		}
		k.Spawn("cons", func(p *Proc) {
			for n := 0; n < 12; n++ {
				v := q.Get(p)
				log = append(log, fmt.Sprintf("%v:%d", p.Now(), v))
				p.Sleep(500 * Nanosecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic:\n%v\n%v", a, b)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int]("never")
	k.Spawn("waiter", func(p *Proc) { q.Get(p) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Procs) != 1 || dl.Procs[0].Name != "waiter" {
		t.Fatalf("bad deadlock report: %+v", dl)
	}
	if dl.Procs[0].Reason != "queue-get never" {
		t.Fatalf("reason = %q", dl.Procs[0].Reason)
	}
	k.Shutdown()
	if n := len(k.Blocked()); n != 0 {
		t.Fatalf("blocked after shutdown: %d", n)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	k := NewKernel(1)
	s := NewSemaphore("s", 1)
	var order []string
	hold := func(name string, work Duration) {
		k.Spawn(name, func(p *Proc) {
			s.Acquire(p)
			order = append(order, name)
			p.Sleep(work)
			s.Release()
		})
	}
	hold("first", 10*Microsecond)
	hold("second", Microsecond)
	hold("third", Microsecond)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[first second third]" {
		t.Fatalf("order = %v", order)
	}
}

func TestCondSignal(t *testing.T) {
	k := NewKernel(1)
	c := NewCond("c")
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(Microsecond)
		if !c.Signal() {
			t.Error("Signal found no waiter")
		}
		for i := 0; i < 2; i++ {
			p.Sleep(Microsecond)
			if !c.Signal() {
				t.Error("Signal found no waiter")
			}
		}
		if c.Signal() {
			t.Error("Signal woke a waiter that was not there")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.After(10*Microsecond, func() { fired++ })
	k.After(30*Microsecond, func() { fired++ })
	k.RunUntil(Time(20 * Microsecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(20*Microsecond) {
		t.Fatalf("now = %v", k.Now())
	}
	k.RunFor(15 * Microsecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestParkBlockWake(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	var tok ParkToken
	blocker := k.Spawn("blocker", func(p *Proc) {
		tok = p.Arm()
		p.Block("custom-wait", "")
		woke = p.Now()
	})
	k.After(7*Microsecond, func() { blocker.Wake(tok) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(7*Microsecond) {
		t.Fatalf("woke at %v", woke)
	}
}

func TestDoubleWakeIsNoop(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("blocker", func(p *Proc) {
		tok := p.Arm()
		k.After(Microsecond, func() { p.Wake(tok); p.Wake(tok) })
		p.Block("w", "")
		p.Sleep(10 * Microsecond) // would panic if resumed twice
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNestedParksEachWakeOnce: a proc arms an outer park, then blocks
// on an inner one before blocking on the outer; each waker counts for
// exactly one resume, whichever Block it ends.
func TestNestedParksEachWakeOnce(t *testing.T) {
	k := NewKernel(1)
	var resumed []Time
	k.Spawn("nested", func(p *Proc) {
		outer := p.Arm()
		inner := p.Arm()
		k.After(2*Microsecond, func() { p.Wake(inner) })
		k.After(5*Microsecond, func() { p.Wake(outer) })
		p.Block("inner", "")
		resumed = append(resumed, p.Now())
		p.Block("outer", "")
		resumed = append(resumed, p.Now())
		p.Wake(outer) // already spent: must not resume anything
		p.Sleep(Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resumed) != fmt.Sprint([]Time{Time(2 * Microsecond), Time(5 * Microsecond)}) {
		t.Fatalf("resumed at %v", resumed)
	}
}

// TestArmTokenOutlivesWindow: a token armed and left unwoken across
// more than 64 later parks still resumes the proc once, then goes
// stale like any other.
func TestArmTokenOutlivesWindow(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("long", func(p *Proc) {
		old := p.Arm()
		for i := 0; i < 100; i++ {
			tok := p.Arm()
			k.After(Microsecond, func() { p.Wake(tok); p.Wake(tok) })
			p.Block("cycle", "")
		}
		p.Arm()
		k.After(Microsecond, func() { p.Wake(old) })
		p.Block("wait-old", "")
		start := p.Now()
		tok := p.Arm()
		k.After(5*Microsecond, func() { p.Wake(old) })
		k.After(10*Microsecond, func() { p.Wake(tok) })
		p.Block("wait-new", "")
		woke = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(10*Microsecond) {
		t.Fatalf("re-woken %v after the last park, want 10µs", woke)
	}
	if len(k.oldUnwoken) != 0 {
		t.Fatalf("%d parks left on the overflow list after their wake", len(k.oldUnwoken))
	}
}

// recovered runs run and returns the value it panicked with, or nil.
func recovered(run func()) (r any) {
	defer func() { r = recover() }()
	run()
	return nil
}

// TestProcPanicPropagates: a proc's panic surfaces from Run on the
// caller's goroutine, wrapped with the proc's name, also when the proc
// was resumed by another proc's goroutine, and also on a Group shard.
func TestProcPanicPropagates(t *testing.T) {
	for _, h := range procHosts() {
		h.k.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(Microsecond)
			}
		})
		h.k.Spawn("bomb", func(p *Proc) {
			p.Sleep(Microseconds(2.5))
			panic("boom")
		})
		if r := recovered(func() { _ = h.run() }); r != `sim: proc "bomb" panicked: boom` {
			t.Fatalf("%s: Run panicked with %v, want the proc's panic wrapped", h.name, r)
		}
		h.shutdown()
	}
}

// TestEventPanicPropagates: an event callback that panics surfaces from
// Run and from RunUntil on the caller's goroutine, with the original
// value: while a parking proc's goroutine runs the event loop, on a
// standalone kernel or inside a Group shard's grant, and on a shard's
// own goroutine, which must also stop the other shard's endless ticker.
func TestEventPanicPropagates(t *testing.T) {
	sentinel := errors.New("sentinel")
	ticker := func(k *Kernel, bomb bool) {
		k.Spawn("ticker", func(p *Proc) {
			for i := 0; ; i++ {
				if bomb && i == 3 {
					k.After(Microsecond/2, func() { panic(sentinel) })
				}
				p.Sleep(Microsecond)
			}
		})
	}
	for _, h := range procHosts() {
		runs := map[string]func(){"Run": func() { _ = h.run() }}
		if h.runUntil != nil {
			runs["RunUntil"] = func() { h.runUntil(Time(Millisecond)) }
		}
		for name, run := range runs {
			ticker(h.k, true)
			if got := recovered(run); got != sentinel {
				t.Fatalf("%s %s panicked with %v, want the event's own value", h.name, name, got)
			}
			h.shutdown()
		}
	}
	g := newTestGroup(2)
	ticker(g.kernels[0], false)
	g.kernels[1].At(Time(2500), func() { panic(sentinel) })
	if got := recovered(func() { _ = g.Run() }); got != sentinel {
		t.Fatalf("Group shard goroutine: Run panicked with %v, want the event's own value", got)
	}
	shutdownGroup(g)
}

// TestShutdownReleasesProcs: Shutdown ends the goroutine of every
// parked proc, after a bounded run and after a deadlocked one, on a
// standalone kernel and on a Group shard.
func TestShutdownReleasesProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(stage string) {
		t.Helper()
		// A killed proc's goroutine exits just after handing the token
		// back, so give the stragglers a few seconds to finish.
		for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(end); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, want at most %d", stage, n, base)
		}
	}
	spawn := func(k *Kernel) {
		c := NewCond("never")
		for i := 0; i < 50; i++ {
			d := Duration(i) * Microsecond
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				c.Wait(p)
			})
		}
	}

	for _, h := range procHosts() {
		if h.runUntil == nil {
			continue
		}
		spawn(h.k)
		h.runUntil(Time(Millisecond))
		h.shutdown()
		settled(h.name + " after RunUntil")
	}
	for _, h := range procHosts() {
		spawn(h.k)
		var dl *DeadlockError
		if err := h.run(); !errors.As(err, &dl) || len(dl.Procs) != 50 {
			t.Fatalf("%s: Run = %v, want a deadlock of 50 procs", h.name, err)
		}
		h.shutdown()
		settled(h.name + " after deadlock")
	}
}

// TestSameInstantResumeOrder: a parking proc whose own resume is queued
// behind another proc's resume and a plain event at the same instant
// runs after both, in (at, seq) order, whether the three sit in the
// same-instant FIFO or in the heap.
func TestSameInstantResumeOrder(t *testing.T) {
	cases := map[string]func(k *Kernel, log func(string)){
		"fifo": func(k *Kernel, log func(string)) {
			var b *Proc
			var tok ParkToken
			b = k.Spawn("b", func(p *Proc) {
				tok = p.Arm()
				p.Block("wait", "")
				log("b")
			})
			k.Spawn("a", func(p *Proc) {
				p.Sleep(Microsecond)
				b.Wake(tok)
				k.At(p.Now(), func() { log("event") })
				p.Yield()
				log("a")
			})
		},
		"heap": func(k *Kernel, log func(string)) {
			at := Time(Microsecond)
			k.Spawn("b", func(p *Proc) {
				p.Sleep(at.Sub(p.Now()))
				log("b")
			})
			k.Spawn("a", func(p *Proc) {
				k.At(at, func() { log("event") })
				p.Sleep(at.Sub(p.Now()))
				log("a")
			})
		},
	}
	for name, setup := range cases {
		k := NewKernel(1)
		var order []string
		setup(k, func(s string) {
			if k.Now() != Time(Microsecond) {
				t.Errorf("%s: %s ran at %v, want 1µs", name, s, k.Now())
			}
			order = append(order, s)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(order), "[b event a]"; got != want {
			t.Fatalf("%s: order %s, want %s", name, got, want)
		}
	}
}

// Property: a FIFO queue delivers every item exactly once, in order,
// regardless of producer/consumer interleaving parameters.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(prodDelay, consDelay uint8, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := NewKernel(7)
		q := NewQueue[int]("q")
		var got []int
		k.Spawn("prod", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Put(i)
				p.Sleep(Duration(prodDelay) * Nanosecond)
			}
		})
		k.Spawn("cons", func(p *Proc) {
			for i := 0; i < n; i++ {
				got = append(got, q.Get(p))
				p.Sleep(Duration(consDelay) * Nanosecond)
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual time never goes backwards across any sequence of
// sleeps with arbitrary durations.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(3)
		ok := true
		k.Spawn("walker", func(p *Proc) {
			last := p.Now()
			for _, d := range delays {
				p.Sleep(Duration(d) * Nanosecond)
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{Microseconds(303), "303.000µs"},
		{Milliseconds(12), "12.000ms"},
		{Seconds(2), "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d: got %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestBlockedListsParkedProcs(t *testing.T) {
	k := NewKernel(1)
	c := NewCond("gate")
	k.Spawn("a", func(p *Proc) { c.Wait(p) })
	k.Spawn("b", func(p *Proc) {
		p.Sleep(Microsecond)
		if got := len(k.Blocked()); got != 1 {
			t.Errorf("blocked = %d, want 1", got)
		}
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int]("dq")
	d := k.Spawn("daemon", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	d.SetDaemon(true)
	k.Spawn("worker", func(p *Proc) {
		q.Put(1)
		p.Sleep(Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("daemon should not count as deadlock: %v", err)
	}
	if !d.daemon {
		t.Fatal("daemon flag lost")
	}
	k.Shutdown()
}

func TestRunForWithEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(50 * Microsecond)
	if k.Now() != Time(50*Microsecond) {
		t.Fatalf("now = %v", k.Now())
	}
}

func TestMicrosecondHelpers(t *testing.T) {
	if Microseconds(1.5) != 1500*Nanosecond {
		t.Fatal("Microseconds fraction lost")
	}
	if d := Seconds(0.25); d.Seconds() != 0.25 {
		t.Fatalf("Seconds round trip: %v", d.Seconds())
	}
	if tm := Time(Milliseconds(2)); tm.Microseconds() != 2000 {
		t.Fatalf("Time.Microseconds = %v", tm.Microseconds())
	}
	if tm := Time(Seconds(3)); tm.Seconds() != 3 {
		t.Fatalf("Time.Seconds = %v", tm.Seconds())
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	a := NewKernel(99).Rand().Int63()
	b := NewKernel(99).Rand().Int63()
	c := NewKernel(100).Rand().Int63()
	if a != b {
		t.Fatal("same seed differs")
	}
	if a == c {
		t.Fatal("different seeds collide (suspicious)")
	}
	k, ref := NewKernel(99), rand.New(rand.NewSource(99))
	for i := 0; i < 3; i++ {
		if got, want := k.Rand().Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d = %d, want %d: one source per kernel, seeded once", i, got, want)
		}
	}
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("first", func(p *Proc) {
		if p.Kernel() != k || p.Name() != "first" {
			t.Error("accessors broken")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
