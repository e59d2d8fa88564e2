package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
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
		q := NewQueue[int](k, "q", 2)
		for i := 0; i < 3; i++ {
			i := i
			k.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					q.Put(p, i*10+j)
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
	q := NewQueue[int](k, "never", 0)
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
	if k.Alive() != 0 {
		t.Fatalf("alive after shutdown: %d", k.Alive())
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	k := NewKernel(1)
	s := NewSemaphore(k, "s", 1)
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

func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel(1)
	s := NewSemaphore(k, "s", 1)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	s.Release()
	if s.Value() != 1 {
		t.Fatalf("value = %d", s.Value())
	}
}

func TestCondSignalAndBroadcast(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "c")
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
		p.Sleep(Microsecond)
		if n := c.Broadcast(); n != 2 {
			t.Errorf("Broadcast woke %d, want 2", n)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	var wg WaitGroup
	done := false
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond)
			wg.Done()
		})
	}
	k.Spawn("main", func(p *Proc) {
		wg.Wait(p)
		done = true
		if p.Now() != Time(3*Microsecond) {
			t.Errorf("woke at %v, want 3µs", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("main never woke")
	}
}

func TestQueueCapacityBlocksPutter(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 1)
	var events []string
	k.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		events = append(events, "put1")
		q.Put(p, 2) // blocks until consumer takes item 1
		events = append(events, fmt.Sprintf("put2@%v", p.Now()))
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		if v := q.Get(p); v != 1 {
			t.Errorf("got %d, want 1", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[put1 put2@t=5.000µs]"
	if fmt.Sprint(events) != want {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

func TestQueueTryOps(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k, "q", 2)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if !q.TryPut("a") || !q.TryPut("b") {
		t.Fatal("TryPut should succeed below capacity")
	}
	if q.TryPut("c") {
		t.Fatal("TryPut above capacity succeeded")
	}
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q, %v", v, ok)
	}
	if v, ok := q.TryGet(); !ok || v != "a" {
		t.Fatalf("TryGet = %q, %v", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
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

func TestStopPausesRun(t *testing.T) {
	k := NewKernel(1)
	var hits []Time
	k.After(Microsecond, func() {
		hits = append(hits, k.Now())
		k.Stop()
	})
	k.After(2*Microsecond, func() { hits = append(hits, k.Now()) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits after resume = %v", hits)
	}
}

func TestParkBlockWake(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	var wake func()
	k.Spawn("blocker", func(p *Proc) {
		wake = p.Park("custom-wait")
		p.Block()
		woke = p.Now()
	})
	k.After(7*Microsecond, func() { wake() })
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
		wake := p.Park("w")
		k.After(Microsecond, func() { wake(); wake() })
		p.Block()
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
		outer := p.Park("outer")
		inner := p.Arm("inner")
		k.After(2*Microsecond, func() { p.Wake(inner) })
		k.After(5*Microsecond, outer)
		p.Block()
		resumed = append(resumed, p.Now())
		p.Block()
		resumed = append(resumed, p.Now())
		outer() // already spent: must not resume anything
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
		old := p.Arm("left-armed")
		for i := 0; i < 100; i++ {
			tok := p.Arm("cycle")
			k.After(Microsecond, func() { p.Wake(tok); p.Wake(tok) })
			p.Block()
		}
		p.Arm("wait-old")
		k.After(Microsecond, func() { p.Wake(old) })
		p.Block()
		start := p.Now()
		tok := p.Arm("wait-new")
		k.After(5*Microsecond, func() { p.Wake(old) })
		k.After(10*Microsecond, func() { p.Wake(tok) })
		p.Block()
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

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bomb", func(p *Proc) { panic("boom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate out of Run")
		}
	}()
	_ = k.Run()
}

// Property: a FIFO queue delivers every item exactly once, in order,
// regardless of producer/consumer interleaving parameters.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(capRaw uint8, prodDelay, consDelay uint8, nRaw uint8) bool {
		capacity := int(capRaw % 8)
		n := int(nRaw%50) + 1
		k := NewKernel(7)
		q := NewQueue[int](k, "q", capacity)
		var got []int
		k.Spawn("prod", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
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
	c := NewCond(k, "gate")
	k.Spawn("a", func(p *Proc) { c.Wait(p) })
	k.Spawn("b", func(p *Proc) {
		p.Sleep(Microsecond)
		if got := len(k.Blocked()); got != 1 {
			t.Errorf("blocked = %d, want 1", got)
		}
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "dq", 0)
	d := k.Spawn("daemon", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	d.SetDaemon(true)
	k.Spawn("worker", func(p *Proc) {
		q.Put(p, 1)
		p.Sleep(Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("daemon should not count as deadlock: %v", err)
	}
	if !d.Daemon() {
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

func TestSleepUntilPastIsYield(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("w", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		p.SleepUntil(Time(5 * Microsecond)) // already past
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(10*Microsecond) {
		t.Fatalf("woke at %v", woke)
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
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel(1)
	p1 := k.Spawn("first", func(p *Proc) {
		if p.Kernel() != k || p.Name() != "first" || p.ID() != 0 {
			t.Error("accessors broken")
		}
	})
	_ = p1
	k.Spawn("second", func(p *Proc) {
		if p.ID() != 1 {
			t.Errorf("id = %d", p.ID())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Running() != nil {
		t.Fatal("running should be nil outside dispatch")
	}
}
