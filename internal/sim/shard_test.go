package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// shardSim abstracts "n logical shards" so the same logical program
// can run on a real Group or collapsed onto one serial kernel. The
// serial run is the reference the sharded run must reproduce in
// virtual time.
type shardSim interface {
	kernel(shard int) *Kernel
	post(src, dst int, at Time, fn func())
	run() error
}

type groupSim struct{ g *Group }

func (s groupSim) kernel(i int) *Kernel { return s.g.kernels[i] }
func (s groupSim) post(src, dst int, at Time, fn func()) {
	s.g.kernels[src].Post(dst, at, fn)
}
func (s groupSim) run() error { return s.g.Run() }

type serialSim struct{ k *Kernel }

func (s serialSim) kernel(int) *Kernel { return s.k }
func (s serialSim) post(_, _ int, at Time, fn func()) {
	s.k.At(at, fn)
}
func (s serialSim) run() error { return s.k.Run() }

// relayEntry records one hop firing: which chain, which hop index, and
// the virtual time it ran. Each shard appends only to its own log, so
// the logs are race-free under parallel execution and their per-shard
// order is exactly that shard's dispatch order.
type relayEntry struct {
	chain, hop int
	at         Time
}

// relayProgram builds a deterministic cross-shard relay mesh: chains of
// events that wander between shards with per-hop delays at or above
// the lookahead. All mutable state (a chain's rng, its hop counter)
// travels along the chain, ordered by the happens-before of delivery,
// and every chain's timestamps are congruent to its index modulo the
// chain count, so no two events anywhere ever tie. Both the virtual
// timeline and each shard's dispatch order are therefore fixed no
// matter how the shards are scheduled — and must match a serial run.
func relayProgram(s shardSim, shards int, seed int64, logs [][]relayEntry) {
	const L = Duration(1000)
	nChains := shards * 4
	base := (int(L) + nChains - 1) / nChains // ceil: every delay clears the lookahead
	for c := 0; c < nChains; c++ {
		c := c
		home := c % shards
		rng := rand.New(rand.NewSource(seed*997 + int64(c)))
		hops := 30 + c%4
		var hop func(cur, remaining int, at Time)
		hop = func(cur, remaining int, at Time) {
			logs[cur] = append(logs[cur], relayEntry{chain: c, hop: hops - remaining, at: at})
			if remaining == 0 {
				return
			}
			next := (cur + 1 + rng.Intn(shards)) % shards
			delay := Duration(nChains * (base + rng.Intn(50)))
			nat := at.Add(delay)
			if next == cur {
				s.kernel(cur).At(nat, func() { hop(cur, remaining-1, nat) })
			} else {
				s.post(cur, next, nat, func() { hop(next, remaining-1, nat) })
			}
		}
		start := Time(nChains + c)
		s.kernel(home).At(start, func() { hop(home, hops, start) })
	}
}

// runRelay executes the relay program and returns the per-shard
// dispatch logs. The rng consumption along each chain depends on its
// dispatch history, so log equality proves both that every event fired
// at the serial run's virtual time and that each shard dispatched its
// share in the serial run's relative order.
func runRelay(t *testing.T, s shardSim, shards int, seed int64) [][]relayEntry {
	t.Helper()
	logs := make([][]relayEntry, shards)
	relayProgram(s, shards, seed, logs)
	if err := s.run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return logs
}

// diffLogs fails the test at the first per-shard divergence.
func diffLogs(t *testing.T, label string, want, got [][]relayEntry) {
	t.Helper()
	for sh := range want {
		if len(got[sh]) != len(want[sh]) {
			t.Fatalf("%s: shard %d dispatched %d events, reference %d", label, sh, len(got[sh]), len(want[sh]))
		}
		for x, w := range want[sh] {
			if got[sh][x] != w {
				t.Fatalf("%s: shard %d pos %d: got %+v, reference %+v", label, sh, x, got[sh][x], w)
			}
		}
	}
}

// shutdownGroup kills the parked procs of every shard.
func shutdownGroup(g *Group) {
	for _, k := range g.kernels {
		k.Shutdown()
	}
}

func newTestGroup(shards int) *Group {
	ks := make([]*Kernel, shards)
	for i := range ks {
		ks[i] = NewKernel(1)
	}
	return NewGroup(Duration(1000), Duration(1000), ks...)
}

// procHost is a kernel for proc tests together with the Run, RunUntil
// and Shutdown of whatever owns it. A Group has no bounded run, so its
// runUntil is nil.
type procHost struct {
	name     string
	k        *Kernel
	run      func() error
	runUntil func(Time)
	shutdown func()
}

// procHosts returns fresh hosts of both kinds: a standalone kernel, and
// shard 0 of a two-shard Group whose shard 1 stays idle, where procs
// hand the run token to each other inside grants.
func procHosts() []procHost {
	k := NewKernel(1)
	g := newTestGroup(2)
	return []procHost{
		{"kernel", k, k.Run, k.RunUntil, k.Shutdown},
		{"group shard", g.kernels[0], g.Run, nil, func() { shutdownGroup(g) }},
	}
}

func TestGroupMatchesSerialReference(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			want := runRelay(t, serialSim{NewKernel(1)}, shards, seed)
			g := newTestGroup(shards)
			got := runRelay(t, groupSim{g}, shards, seed)
			diffLogs(t, fmt.Sprintf("shards=%d seed=%d", shards, seed), want, got)
			if g.CrossPosts() == 0 {
				t.Fatalf("shards=%d seed=%d: relay mesh routed no cross-shard events", shards, seed)
			}
		}
	}
}

func TestGroupRepeatedRunsIdentical(t *testing.T) {
	ref := runRelay(t, groupSim{newTestGroup(4)}, 4, 42)
	for rep := 0; rep < 10; rep++ {
		got := runRelay(t, groupSim{newTestGroup(4)}, 4, 42)
		diffLogs(t, fmt.Sprintf("rep %d", rep), ref, got)
	}
}

// TestGroupSameInstantMergeOrder engineers a tie at one destination:
// two crosses from different shards, a local event, a proc resumed by
// Sleep and a FIFO event the local schedules at the tie instant itself.
// The deterministic rule is crosses first in shard order, then posting
// order; then the heap's local events in scheduling order; then the
// same-instant FIFO.
func TestGroupSameInstantMergeOrder(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		g := newTestGroup(3)
		var order []string
		at := Time(5000)
		g.kernels[1].At(100, func() {
			g.kernels[1].Post(0, at, func() { order = append(order, "cross-1a") })
			g.kernels[1].Post(0, at, func() { order = append(order, "cross-1b") })
		})
		g.kernels[2].At(50, func() {
			g.kernels[2].Post(0, at, func() { order = append(order, "cross-2") })
		})
		k0 := g.kernels[0]
		k0.At(at, func() {
			order = append(order, "local")
			k0.At(k0.Now(), func() { order = append(order, "fifo") })
		})
		k0.Spawn("sleeper", func(p *Proc) {
			p.Sleep(at.Sub(p.Now()))
			order = append(order, "proc")
		})
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"cross-1a", "cross-1b", "cross-2", "local", "proc", "fifo"}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("rep %d: merge order %v, want %v", rep, order, want)
		}
	}
}

// TestGroupDrainRejectsCrossInThePast: a cross whose time lies below
// its shard's clock when drained means the safe bound was unsound; the
// drain panics rather than dispatch it out of order.
func TestGroupDrainRejectsCrossInThePast(t *testing.T) {
	g := newTestGroup(2)
	g.kernels[0].Post(1, 2000, func() {})
	g.kernels[1].now = 3000
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "arrived in the past") {
			t.Fatalf("drain below the clock: recovered %v, want the arrived-in-the-past panic", r)
		}
	}()
	g.drain(1)
}

// TestGroupPostLookaheadEnforced: on a one-promise group a post below
// it panics; on a two-promise group a post whose slack lies between the
// two panics only while no hold is out, and one below the narrow
// promise panics even with a hold out. The panic names the poster's
// clock, the target time and the promise it broke.
func TestGroupPostLookaheadEnforced(t *testing.T) {
	for _, c := range []struct {
		name         string
		narrow, wide Duration
		hold         bool
		slack        Duration
		want         string // "" when the post must go through
	}{
		{"one promise", 1000, 1000, false, 999, "clock t=0.100µs, target t=1.099µs, promise 1.000µs"},
		{"between, no hold", 1000, 2000, false, 1500, "clock t=0.100µs, target t=1.600µs, promise 2.000µs"},
		{"between, held", 1000, 2000, true, 1500, ""},
		{"wide, no hold", 1000, 2000, false, 2000, ""},
		{"below narrow, held", 1000, 2000, true, 999, "clock t=0.100µs, target t=1.099µs, promise 1.000µs"},
	} {
		t.Run(c.name, func(t *testing.T) {
			k0, k1 := NewKernel(1), NewKernel(1)
			g := NewGroup(c.narrow, c.wide, k0, k1)
			if c.hold {
				k0.HoldNarrow()
			}
			var got any
			k0.At(100, func() {
				got = recovered(func() { k0.Post(1, Time(100).Add(c.slack), func() {}) })
				g.Stop()
			})
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			switch msg := fmt.Sprint(got); {
			case c.want == "" && got != nil:
				t.Fatalf("post with slack %v panicked: %v", c.slack, got)
			case c.want != "" && msg != "sim: cross-shard post violates lookahead: "+c.want:
				t.Fatalf("post with slack %v: recovered %v, want the lookahead panic naming %q", c.slack, got, c.want)
			}
		})
	}
}

// TestGroupHoldBoundsOwnGrant: shard 0 ticks densely and, at 100, takes
// a hold and posts to shard 1 one wide promise on, which posts back one
// narrow promise later and releases the hold. The answer lands at
// 100 + wide + narrow, before shard 0's first wide round trip ends
// (front 0 + 2·wide), so the hold must lower shard 0's running grant:
// without that, shard 0 ticks past the answer and receives it in its
// past. Every run reproduces it, on any number of threads.
func TestGroupHoldBoundsOwnGrant(t *testing.T) {
	const narrow, wide = Duration(1000), Duration(2000)
	k0, k1 := NewKernel(1), NewKernel(1)
	g := NewGroup(narrow, wide, k0, k1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if k0.Now() < 6000 {
			k0.After(10, tick)
		}
	}
	k0.At(5, tick)
	answered := Time(-1)
	k0.At(100, func() {
		k0.HoldNarrow()
		k0.Post(1, k0.Now().Add(wide), func() {
			k1.Post(0, k1.Now().Add(narrow), func() { answered = k0.Now() })
			k1.ReleaseNarrow()
		})
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if answered != Time(100).Add(wide+narrow) || ticks != 601 {
		t.Fatalf("answer ran at %v after %d ticks, want %v after 601", answered, ticks, Time(100).Add(wide+narrow))
	}
}

// TestGroupFrontRaiseWakesWithinPromise: a front raise wakes a parked
// peer whose front lies within the promise in force of the new front:
// with no hold out, one lying between the narrow and the wide promise
// of it is woken, and with a hold out it is not.
func TestGroupFrontRaiseWakesWithinPromise(t *testing.T) {
	for _, held := range []bool{false, true} {
		k0, k1 := NewKernel(1), NewKernel(1)
		g := NewGroup(1000, 2000, k0, k1)
		if held {
			k0.HoldNarrow()
		}
		k0.At(5000, func() {})
		g.localMin[0].Store(0)
		g.localMin[1].Store(6500)
		g.idle[1].Store(true)
		g.publishLocalMin(0, false)
		woken := len(g.wake[1]) == 1
		if woken == held {
			t.Fatalf("hold out %v: raise to 5000 woke the peer parked at 6500: %v", held, woken)
		}
	}
}

// journeyProgram is relayProgram with holds: chains wander between
// shards on legs of at least the wide promise, and now and then one
// makes a journey the way a short message crosses the fabric. It takes
// a hold; its first leg stays on the holder's shard, as a message's hop
// up its own cluster's link does; each leg lasts at least narrow, so a
// cross lands at least two narrow promises (wide) after the hold and
// can come back to the holder's shard after three; and the landing of
// the last leg releases the hold. Chains keep their timestamps
// congruent to their index, so nothing ties. wide must be at most
// twice narrow.
func journeyProgram(s shardSim, shards int, seed int64, logs [][]relayEntry, narrow, wide Duration) {
	nChains := shards * 4
	base := (int(narrow) + nChains - 1) / nChains // nChains*base >= narrow
	wideBase := (int(wide) + nChains - 1) / nChains
	for c := 0; c < nChains; c++ {
		c := c
		home := c % shards
		rng := rand.New(rand.NewSource(seed*991 + int64(c)))
		hops := 40 + c%5
		held, legs := false, 0 // a journey's hold, and its short legs still to post
		var hop func(cur, remaining int, at Time)
		hop = func(cur, remaining int, at Time) {
			logs[cur] = append(logs[cur], relayEntry{chain: c, hop: hops - remaining, at: at})
			if held && (legs == 0 || remaining == 0) {
				// The journey's last leg has landed.
				s.kernel(cur).ReleaseNarrow()
				held = false
			}
			if remaining == 0 {
				return
			}
			next := (cur + rng.Intn(shards)) % shards
			delay := nChains * (wideBase + rng.Intn(40))
			switch {
			case held:
				legs--
				delay = nChains * (base + rng.Intn(wideBase-base))
			case c%4 == 0 && rng.Intn(5) == 0:
				s.kernel(cur).HoldNarrow()
				held, legs = true, 1+rng.Intn(3)
				next, delay = cur, nChains*(base+rng.Intn(wideBase-base))
			}
			nat := at.Add(Duration(delay))
			if next == cur {
				s.kernel(cur).At(nat, func() { hop(cur, remaining-1, nat) })
			} else {
				s.post(cur, next, nat, func() { hop(next, remaining-1, nat) })
			}
		}
		start := Time(nChains + c)
		s.kernel(home).At(start, func() { hop(home, hops, start) })
	}
}

// TestGroupHoldsMatchSerialReference runs journeyProgram on two-promise
// groups, so grants open under both promises and holds are taken and
// released on different shards, and checks every shard's dispatch log
// against the serial run, where holds do nothing.
func TestGroupHoldsMatchSerialReference(t *testing.T) {
	const narrow, wide = Duration(1000), Duration(2000)
	for _, shards := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			want := make([][]relayEntry, shards)
			sk := NewKernel(1)
			journeyProgram(serialSim{sk}, shards, seed, want, narrow, wide)
			if err := sk.Run(); err != nil {
				t.Fatal(err)
			}
			ks := make([]*Kernel, shards)
			for i := range ks {
				ks[i] = NewKernel(1)
			}
			g := NewGroup(narrow, wide, ks...)
			got := make([][]relayEntry, shards)
			journeyProgram(groupSim{g}, shards, seed, got, narrow, wide)
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			diffLogs(t, fmt.Sprintf("shards=%d seed=%d", shards, seed), want, got)
			if h := g.holds.Load(); h != 0 {
				t.Fatalf("shards=%d seed=%d: %d holds out after the run", shards, seed, h)
			}
		}
	}
}

func TestGroupDeadlockAggregation(t *testing.T) {
	g := newTestGroup(2)
	g.kernels[0].Spawn("stuck-a", func(p *Proc) {
		p.Arm()
		p.Block("waiting-forever", "")
	})
	g.kernels[1].Spawn("stuck-b", func(p *Proc) {
		p.Arm()
		p.Block("also-waiting", "")
	})
	err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Procs) != 2 {
		t.Fatalf("expected 2 blocked procs, got %v", de.Procs)
	}
	names := []string{de.Procs[0].Name, de.Procs[1].Name}
	sort.Strings(names)
	if names[0] != "stuck-a" || names[1] != "stuck-b" {
		t.Fatalf("blocked procs %v", names)
	}
	shutdownGroup(g)
}

func TestGroupStopFromShard(t *testing.T) {
	g := newTestGroup(2)
	ran := 0
	g.kernels[0].At(10, func() { ran++; g.Stop() })
	g.kernels[1].At(1000000, func() { ran++ })
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

// TestGroupStopWhilePostingPastFullMailbox: shard 1 posts three
// inboxes' worth of crosses to shard 0, and shard 0 stops the run
// once its inbox is full. A stopped shard drains no more, so the
// poster must not wait for room; Run returns, and the next Run
// dispatches every post.
func TestGroupStopWhilePostingPastFullMailbox(t *testing.T) {
	const posts = 3 * inboxCap
	done := make(chan struct{})
	var first, second, ran int
	go func() {
		defer close(done)
		g := newTestGroup(2)
		full := make(chan struct{})
		g.kernels[0].At(10, func() { <-full; g.Stop() })
		count := func() { ran++ }
		g.kernels[1].At(10, func() {
			for n := 1; n <= posts; n++ {
				g.kernels[1].Post(0, 2000, count)
				if n == inboxCap {
					close(full)
				}
			}
		})
		if err := g.Run(); err != nil {
			t.Error(err)
		}
		first = ran
		if err := g.Run(); err != nil {
			t.Error(err)
		}
		second = ran
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10 s after Stop, with a poster waiting on a full inbox")
	}
	if first != 0 || second != posts {
		t.Fatalf("crosses run: %d by the stopped Run, %d after the next, want 0 and %d", first, second, posts)
	}
}

// TestGroupProcsAcrossShards runs token-passing proc coroutines on
// every shard with cross-shard wakeups threaded through Post.
func TestGroupProcsAcrossShards(t *testing.T) {
	const shards = 4
	g := newTestGroup(shards)
	var wakes [shards]int
	var chain func(sh int, hops int)
	chain = func(sh int, hops int) {
		k := g.kernels[sh]
		k.Spawn(fmt.Sprintf("worker%d-%d", sh, hops), func(p *Proc) {
			tok := p.Arm()
			k.After(Duration(1500), func() { p.Wake(tok) })
			p.Block("await-relay", "")
			wakes[sh]++
			if hops > 0 {
				next := (sh + 1) % shards
				k.Post(next, p.Now().Add(Duration(2000)), func() { chain(next, hops-1) })
			}
		})
	}
	g.kernels[0].At(0, func() { chain(0, 20) })
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range wakes {
		total += w
	}
	if total != 21 {
		t.Fatalf("chain woke %d times, want 21 (%v)", total, wakes)
	}
}

// TestGroupFloorScanRacingDrain: the last shard ticks densely and, on
// every tick, posts a probe to shard 0, which answers at exactly the
// lookahead — the earliest instant the protocol allows. If the global
// floor were computed from a scan torn by shard 0's concurrent drain
// (the probe read neither in shard 0's inbox nor in its localMin),
// the last shard would dispatch past the answer and receive it in its
// past. The wide 8-shard scan makes the tear likely, so it runs twice;
// it needs two host threads to happen at all (go test -cpu 2).
func TestGroupFloorScanRacingDrain(t *testing.T) {
	const L = Duration(1000)
	for _, shards := range []int{8, 8, 4, 2} {
		const probes = 100000
		g := newTestGroup(shards)
		far := shards - 1
		k0, kf := g.kernels[0], g.kernels[far]
		answered, late := 0, 0
		var tick func(n int)
		tick = func(n int) {
			if n == 0 {
				return
			}
			sent := kf.Now()
			kf.Post(0, sent.Add(L), func() {
				k0.Post(far, k0.Now().Add(L), func() {
					answered++
					if kf.Now() != sent.Add(2*L) {
						late++
					}
				})
			})
			kf.At(sent.Add(251), func() { tick(n - 1) })
		}
		kf.At(1, func() { tick(probes) })
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		if answered != probes || late != 0 {
			t.Fatalf("shards=%d: %d/%d probes answered, %d off schedule", shards, answered, probes, late)
		}
	}
}

// TestGroupFrontSkipsStoppedTimer: a shard whose only event is a
// stopped timer has no front, so it holds no peer's safe bound back.
func TestGroupFrontSkipsStoppedTimer(t *testing.T) {
	k0, k1 := NewKernel(1), NewKernel(1)
	g := NewGroup(Microsecond, Microsecond, k0, k1)
	k0.At(Time(Second), func() { t.Error("stopped timer ran") }).Stop()
	if got := g.curMin(0); got != noEvent {
		t.Fatalf("curMin(0) = %d with only a stopped timer queued, want none", got)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
}

// procRunsGrantStep reports whether some proc's goroutine is inside
// Group.nextGrant: a proc holds its shard's token between grants.
func procRunsGrantStep() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, st := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(st, "sim.(*Group).nextGrant") && strings.Contains(st, "sim.(*Kernel).procMain") {
			return true
		}
	}
	return false
}

// TestGroupIdleOnProcGoroutine: shard 0's only proc parks, which runs
// the grant dry on the proc's goroutine, and shard 0 goes idle there,
// the token still on that goroutine, while shard 1 waits in an event
// until it sees this. Then shard 1 ends it one of four ways: a cross
// post that wakes the proc, Stop, nothing (a deadlock), or a cross
// whose callback panics in the grant it opens. Every run ends as on the
// shard goroutine, and Shutdown leaves no goroutine behind.
func TestGroupIdleOnProcGoroutine(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		name string
		end  func(g *Group, wake func())
		want func(err error, panicked any, woke bool) bool
	}{
		{"cross wakes it", func(g *Group, wake func()) {
			g.kernels[1].Post(0, g.kernels[1].Now().Add(1000), wake)
		}, func(err error, panicked any, woke bool) bool { return err == nil && panicked == nil && woke }},
		{"stop", func(g *Group, _ func()) { g.Stop() },
			func(err error, panicked any, woke bool) bool { return err == nil && panicked == nil && !woke }},
		{"deadlock", func(*Group, func()) {}, func(err error, panicked any, woke bool) bool {
			var dl *DeadlockError
			return errors.As(err, &dl) && len(dl.Procs) == 1 && dl.Procs[0] == BlockedProc{"waiter", "idle-test"} && !woke
		}},
		{"panic in the next grant", func(g *Group, _ func()) {
			g.kernels[1].Post(0, g.kernels[1].Now().Add(1000), func() { panic(boom) })
		}, func(err error, panicked any, woke bool) bool { return panicked == boom && !woke }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Read the baseline on a warm runner pool: a woken waiter
			// hands its runner back to the pool, which counts as a
			// goroutine only if the waiter had to make it.
			warm := NewKernel(1)
			warm.Spawn("warm", func(*Proc) {})
			if err := warm.Run(); err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			g := newTestGroup(2)
			var waiter *Proc
			var tok ParkToken
			woke := false
			waiter = g.kernels[0].Spawn("waiter", func(p *Proc) {
				tok = p.Arm()
				p.Block("idle-test", "")
				woke = true
			})
			seen := false
			g.kernels[1].At(10, func() {
				for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(100 * time.Microsecond) {
					if g.idle[0].Load() && procRunsGrantStep() {
						seen = true
						break
					}
				}
				c.end(g, func() { waiter.Wake(tok) })
			})
			var err error
			panicked := recovered(func() { err = g.Run() })
			shutdownGroup(g)
			if !seen {
				t.Fatal("shard 0 never went idle with its token on a proc's goroutine")
			}
			if !c.want(err, panicked, woke) {
				t.Fatalf("Run returned %v, panicked with %v, proc woke %v", err, panicked, woke)
			}
			for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(end); {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after Shutdown, %d before the run", n, base)
			}
		})
	}
}

func BenchmarkGroupCrossRelay(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			g := newTestGroup(shards)
			b.ReportAllocs()
			b.ResetTimer()
			var hop func(sh int, n int, at Time)
			hop = func(sh, n int, at Time) {
				if n == 0 {
					return
				}
				next := (sh + 1) % shards
				nat := at.Add(Duration(1001))
				if next == sh {
					g.kernels[sh].At(nat, func() { hop(sh, n-1, nat) })
				} else {
					g.kernels[sh].Post(next, nat, func() { hop(next, n-1, nat) })
				}
			}
			var start Time
			for sh := 0; sh < shards; sh++ {
				sh := sh
				g.kernels[sh].At(start.Add(Duration(1+sh)), func() { hop(sh, b.N, start.Add(Duration(1+sh))) })
			}
			if err := g.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkGroupProcRelay isolates the token's path between grants:
// one proc per shard, woken by a cross post from the shard before it,
// posts the next wake and parks, which runs its grant dry on its own
// goroutine. One op is one hop: a wake, a post and a park.
func BenchmarkGroupProcRelay(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			g := newTestGroup(shards)
			procs := make([]*Proc, shards)
			toks := make([]ParkToken, shards)
			wake := make([]func(), shards)
			hops := 0 // carried along the relay, like its one wake
			for sh := range procs {
				sh, k := sh, g.kernels[sh]
				next := (sh + 1) % shards
				wake[sh] = func() { procs[sh].Wake(toks[sh]) }
				procs[sh] = k.Spawn(fmt.Sprintf("relay%d", sh), func(p *Proc) {
					for {
						toks[sh] = p.Arm()
						p.Block("relay", "")
						if hops == b.N {
							return
						}
						hops++
						k.Post(next, p.Now().Add(1000), wake[next])
					}
				})
				procs[sh].SetDaemon(true)
			}
			g.kernels[0].At(1, wake[0])
			b.ReportAllocs()
			b.ResetTimer()
			if err := g.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			shutdownGroup(g)
			if hops != b.N {
				b.Fatalf("relay made %d hops, want %d", hops, b.N)
			}
		})
	}
}

// TestGroupRingRelayMatchesSerial runs one chain around a ring of
// shards, each hop at the lookahead plus a little jitter, while shard
// 2 ticks densely on its own, and checks the dispatch logs against the
// serial reference. A safe bound that let shard 2 tick past a hop still
// on its way would deliver the hop into its past.
func TestGroupRingRelayMatchesSerial(t *testing.T) {
	const shards = 4
	type entry struct {
		hop int
		at  Time
	}
	run := func(post func(src, dst int, at Time, fn func()), k func(int) *Kernel, logs [][]entry, done func() error) {
		// The chain runs at even instants and the ticker at odd ones,
		// so no two events ever tie.
		var hop func(cur, n int, at Time)
		hop = func(cur, n int, at Time) {
			logs[cur] = append(logs[cur], entry{hop: n, at: at})
			if n == 0 {
				return
			}
			next := (cur + 1) % shards
			nat := at.Add(Duration(1000 + 2*(n%7)))
			post(cur, next, nat, func() { hop(next, n-1, nat) })
		}
		k(0).At(10, func() { hop(0, 40, 10) })
		var tick func(at Time)
		tick = func(at Time) {
			logs[2] = append(logs[2], entry{hop: -1, at: at})
			if next := at.Add(6); next < 45000 {
				k(2).At(next, func() { tick(next) })
			}
		}
		k(2).At(1, func() { tick(1) })
		if err := done(); err != nil {
			t.Fatal(err)
		}
	}
	// The serial "shard" log is keyed by the ring position the hop ran
	// at, which the closure records into logs[cur] identically.
	serialLogs := make([][]entry, shards)
	sk := NewKernel(1)
	run(func(_, _ int, at Time, fn func()) { sk.At(at, fn) },
		func(int) *Kernel { return sk },
		serialLogs, sk.Run)
	g := newTestGroup(shards)
	groupLogs := make([][]entry, shards)
	run(func(src, dst int, at Time, fn func()) { g.kernels[src].Post(dst, at, fn) },
		func(i int) *Kernel { return g.kernels[i] },
		groupLogs, g.Run)
	for sh := range serialLogs {
		if fmt.Sprint(groupLogs[sh]) != fmt.Sprint(serialLogs[sh]) {
			t.Fatalf("shard %d diverged:\nserial %v\ngroup  %v", sh, serialLogs[sh], groupLogs[sh])
		}
	}
}

// TestGroupSyncStatsCounters: a cross-shard run populates every
// sim.sync.* counter, the drained-event total covers all dispatched
// events (every event dispatches inside some grant run), and a
// one-shard group reports zero synchronization.
func TestGroupSyncStatsCounters(t *testing.T) {
	g := newTestGroup(4)
	runRelay(t, groupSim{g}, 4, 7)
	st := g.SyncStats()
	if st.DrainRuns == 0 || st.DrainedEvents == 0 {
		t.Fatalf("no grant runs recorded: %+v", st)
	}
	if st.HorizonPublishes == 0 {
		t.Fatalf("no horizon publishes recorded: %+v", st)
	}
	// The relay cancels nothing, so every locally scheduled event and
	// every cross post dispatches inside some grant run.
	if got, want := st.DrainedEvents, g.Scheduled()+g.CrossPosts(); got != want {
		t.Fatalf("drained %d events, kernels scheduled %d + %d crosses", got, g.Scheduled(), g.CrossPosts())
	}
	if avg := st.AvgDrainRun(); avg < 1 {
		t.Fatalf("average drain run %.2f < 1", avg)
	}

	single := newTestGroup(1)
	single.kernels[0].At(50, func() {})
	if err := single.Run(); err != nil {
		t.Fatal(err)
	}
	st = single.SyncStats()
	if st.HorizonPublishes != 0 || st.NullMessages != 0 || st.Wakeups != 0 {
		t.Fatalf("one-shard group recorded synchronization: %+v", st)
	}
}
