package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

func (s groupSim) kernel(i int) *Kernel { return s.g.Kernel(i) }
func (s groupSim) post(src, dst int, at Time, fn func()) {
	s.g.Kernel(src).Post(dst, at, fn)
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

func newTestGroup(shards int) *Group {
	ks := make([]*Kernel, shards)
	for i := range ks {
		ks[i] = NewKernel(1)
	}
	return NewGroup(UniformLookahead(shards, Duration(1000)), ks...)
}

// procHost is a kernel for proc tests together with the Run, RunUntil
// and Shutdown of whatever owns it.
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
		{"group shard", g.Kernel(0), g.Run, g.RunUntil, g.Shutdown},
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

// TestGroupSameInstantMergeOrder engineers a three-way tie at one
// destination: two crosses from different shards and a local event,
// all at the same instant. The deterministic rule is crosses first in
// shard order, then per-pair sequence order, then local events.
func TestGroupSameInstantMergeOrder(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		g := newTestGroup(3)
		var order []string
		at := Time(5000)
		g.Kernel(1).At(100, func() {
			g.Kernel(1).Post(0, at, func() { order = append(order, "cross-1a") })
			g.Kernel(1).Post(0, at, func() { order = append(order, "cross-1b") })
		})
		g.Kernel(2).At(50, func() {
			g.Kernel(2).Post(0, at, func() { order = append(order, "cross-2") })
		})
		g.Kernel(0).At(at, func() { order = append(order, "local") })
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"cross-1a", "cross-1b", "cross-2", "local"}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("rep %d: merge order %v, want %v", rep, order, want)
		}
	}
}

func TestGroupPostLookaheadEnforced(t *testing.T) {
	g := newTestGroup(2)
	g.Kernel(0).At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("post below lookahead did not panic")
			}
			g.Stop()
		}()
		g.Kernel(0).Post(1, Time(100+999), func() {})
	})
	g.Run()
}

func TestGroupRunUntilAdvancesAndResumes(t *testing.T) {
	g := newTestGroup(2)
	var fired []Time
	g.Kernel(0).At(500, func() {
		g.Kernel(0).Post(1, 2000, func() { fired = append(fired, 2000) })
	})
	g.Kernel(1).At(9000, func() { fired = append(fired, 9000) })
	g.RunUntil(3000)
	if len(fired) != 1 || fired[0] != 2000 {
		t.Fatalf("after RunUntil(3000): fired=%v", fired)
	}
	for i := 0; i < g.Size(); i++ {
		if now := g.Kernel(i).Now(); now != 3000 {
			t.Fatalf("shard %d clock %v, want 3000", i, now)
		}
	}
	g.RunUntil(10000)
	if len(fired) != 2 || fired[1] != 9000 {
		t.Fatalf("after RunUntil(10000): fired=%v", fired)
	}
	if g.Now() != 10000 {
		t.Fatalf("group now %v", g.Now())
	}
}

func TestGroupDeadlockAggregation(t *testing.T) {
	g := newTestGroup(2)
	g.Kernel(0).Spawn("stuck-a", func(p *Proc) {
		p.Park("waiting-forever")
		p.Block()
	})
	g.Kernel(1).Spawn("stuck-b", func(p *Proc) {
		p.Park("also-waiting")
		p.Block()
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
	g.Shutdown()
}

func TestGroupStopFromShard(t *testing.T) {
	stops := map[string]func(g *Group){
		"Group.Stop":  func(g *Group) { g.Stop() },
		"Kernel.Stop": func(g *Group) { g.Kernel(0).Stop() },
	}
	for name, stop := range stops {
		g := newTestGroup(2)
		ran := 0
		g.Kernel(0).At(10, func() { ran++; stop(g) })
		g.Kernel(1).At(1000000, func() { ran++ })
		if err := g.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ran != 1 {
			t.Fatalf("%s: ran %d events after Stop, want 1", name, ran)
		}
	}
}

// TestGroupStopWhilePostingPastFullMailbox: shard 1 posts three
// mailboxes' worth of crosses to shard 0, and shard 0 stops the run
// once the mailbox is full. A stopped shard drains no more, so the
// poster must not wait for room; Run returns, and the next Run
// dispatches every post.
func TestGroupStopWhilePostingPastFullMailbox(t *testing.T) {
	const posts = 3 * mailboxCap
	done := make(chan struct{})
	var first, second, ran int
	go func() {
		defer close(done)
		g := newTestGroup(2)
		full := make(chan struct{})
		g.Kernel(0).At(10, func() { <-full; g.Stop() })
		count := func() { ran++ }
		g.Kernel(1).At(10, func() {
			for n := 1; n <= posts; n++ {
				g.Kernel(1).Post(0, 2000, count)
				if n == mailboxCap {
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
		t.Fatal("Run still blocked 10 s after Stop, with a poster waiting on a full mailbox")
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
		k := g.Kernel(sh)
		k.Spawn(fmt.Sprintf("worker%d-%d", sh, hops), func(p *Proc) {
			wake := p.Park("await-relay")
			k.After(Duration(1500), wake)
			p.Block()
			wakes[sh]++
			if hops > 0 {
				next := (sh + 1) % shards
				k.Post(next, p.Now().Add(Duration(2000)), func() { chain(next, hops-1) })
			}
		})
	}
	g.Kernel(0).At(0, func() { chain(0, 20) })
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
// (the probe read neither in its mailbox nor in shard 0's localMin),
// the last shard would dispatch past the answer and receive it in its
// past. The wide 8-shard scan makes the tear likely, so it runs twice;
// it needs two host threads to happen at all (go test -cpu 2).
func TestGroupFloorScanRacingDrain(t *testing.T) {
	const L = Duration(1000)
	for _, shards := range []int{8, 8, 4, 2} {
		const probes = 100000
		g := newTestGroup(shards)
		far := shards - 1
		k0, kf := g.Kernel(0), g.Kernel(far)
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

type countingProbe struct{ compactions, swept int }

func (c *countingProbe) ProcEvent(Time, string, string) {}
func (c *countingProbe) QueueCompaction(at Time, n int) { c.compactions++; c.swept += n }

func TestCompactionsCounter(t *testing.T) {
	k := NewKernel(1)
	probe := &countingProbe{}
	k.SetProbe(probe)
	var timers []Timer
	for i := 0; i < 100000; i++ {
		timers = append(timers, k.After(Duration(1000+i), func() {}))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if k.Compactions() == 0 {
		t.Fatal("100k cancels triggered no compaction")
	}
	if uint64(probe.compactions) != k.Compactions() {
		t.Fatalf("probe saw %d compactions, kernel counted %d", probe.compactions, k.Compactions())
	}
	if probe.swept == 0 {
		t.Fatal("compactions swept nothing")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
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
					g.Kernel(sh).At(nat, func() { hop(sh, n-1, nat) })
				} else {
					g.Kernel(sh).Post(next, nat, func() { hop(next, n-1, nat) })
				}
			}
			start := g.Now()
			for sh := 0; sh < shards; sh++ {
				sh := sh
				g.Kernel(sh).At(start.Add(Duration(1+sh)), func() { hop(sh, b.N, start.Add(Duration(1+sh))) })
			}
			if err := g.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// lineMatrix is the lookahead step x shard distance in line order.
func lineMatrix(shards int, step Duration) [][]Duration {
	look := make([][]Duration, shards)
	for s := range look {
		look[s] = make([]Duration, shards)
		for d := range look[s] {
			if s != d {
				dist := s - d
				if dist < 0 {
					dist = -dist
				}
				look[s][d] = step * Duration(dist)
			}
		}
	}
	return look
}

func lineMatrixGroup(shards int, step Duration) *Group {
	ks := make([]*Kernel, shards)
	for i := range ks {
		ks[i] = NewKernel(1)
	}
	return NewGroup(lineMatrix(shards, step), ks...)
}

// nonMetricMatrix breaks the triangle inequality: the direct 0→2 entry
// is 5000, yet 0→1→2 costs 2000.
func nonMetricMatrix() [][]Duration {
	const L = Duration(1000)
	return [][]Duration{{0, L, 5 * L}, {L, 0, L}, {L, L, 0}}
}

// TestGroupMatrixLookaheadDeterminism runs a ring relay on non-uniform
// lookahead matrices and checks the dispatch logs against the serial
// reference, so a matrix provably changes only when shards
// synchronize, never what they dispatch. On the line matrix every
// delay clears the widest pair promise (3 x 1000). On the non-metric
// matrix the ring routes each chain 0→1→2 in 2000 while shard 2 ticks
// densely on its own; a safe bound that weighted shard 0's front by
// the direct 5000 instead of the shortest path would let shard 2 tick
// past a hop still on its way and receive it in its past.
func TestGroupMatrixLookaheadDeterminism(t *testing.T) {
	type entry struct {
		hop int
		at  Time
	}
	for _, tc := range []struct {
		name  string
		look  [][]Duration
		delay Duration // per hop, before jitter
		tick  Duration // period of shard 2's local ticker, 0 for none
	}{
		{"line", lineMatrix(4, 1000), 3100, 0},
		{"non-metric", nonMetricMatrix(), 1000, 6},
	} {
		shards := len(tc.look)
		run := func(post func(src, dst int, at Time, fn func()), k func(int) *Kernel, logs [][]entry, done func() error) {
			// The chain runs at even instants and the ticker at odd
			// ones, so no two events ever tie.
			var hop func(cur, n int, at Time)
			hop = func(cur, n int, at Time) {
				logs[cur] = append(logs[cur], entry{hop: n, at: at})
				if n == 0 {
					return
				}
				next := (cur + 1) % shards
				nat := at.Add(tc.delay + Duration(2*(n%7)))
				post(cur, next, nat, func() { hop(next, n-1, nat) })
			}
			k(0).At(10, func() { hop(0, 40, 10) })
			if tc.tick > 0 {
				var tick func(at Time)
				tick = func(at Time) {
					logs[2] = append(logs[2], entry{hop: -1, at: at})
					if next := at.Add(tc.tick); next < 45000 {
						k(2).At(next, func() { tick(next) })
					}
				}
				k(2).At(1, func() { tick(1) })
			}
			if err := done(); err != nil {
				t.Fatal(err)
			}
		}
		// The serial "shard" log is keyed by the ring position the hop
		// ran at, which the closure records into logs[cur] identically.
		serialLogs := make([][]entry, shards)
		sk := NewKernel(1)
		run(func(_, _ int, at Time, fn func()) { sk.At(at, fn) },
			func(int) *Kernel { return sk },
			serialLogs, sk.Run)
		ks := make([]*Kernel, shards)
		for i := range ks {
			ks[i] = NewKernel(1)
		}
		g := NewGroup(tc.look, ks...)
		groupLogs := make([][]entry, shards)
		run(func(src, dst int, at Time, fn func()) { g.Kernel(src).Post(dst, at, fn) },
			func(i int) *Kernel { return g.Kernel(i) },
			groupLogs, g.Run)
		for sh := range serialLogs {
			if fmt.Sprint(groupLogs[sh]) != fmt.Sprint(serialLogs[sh]) {
				t.Fatalf("%s: shard %d diverged:\nserial %v\ngroup  %v", tc.name, sh, serialLogs[sh], groupLogs[sh])
			}
		}
		if g.Lookahead() != Duration(1000) {
			t.Fatalf("%s: group min lookahead %v, want 1000", tc.name, g.Lookahead())
		}
	}
	g := lineMatrixGroup(4, Duration(1000))
	if g.PairLookahead(0, 3) != Duration(3000) || g.PairLookahead(0, 1) != Duration(1000) {
		t.Fatalf("matrix promises wrong: %v, %v", g.PairLookahead(0, 3), g.PairLookahead(0, 1))
	}
}

// bruteReach is the cheapest chain of matrix edges from s to d found
// by enumerating every simple path (every simple cycle when s == d);
// MaxInt64 when there is none.
func bruteReach(look [][]Duration, s, d int) Duration {
	best := Duration(math.MaxInt64)
	var walk func(at int, cost Duration, seen uint)
	walk = func(at int, cost Duration, seen uint) {
		for nx := range look {
			if nx == at {
				continue
			}
			c := cost + look[at][nx]
			if nx == d && c < best {
				best = c
			}
			if seen&(1<<nx) == 0 {
				walk(nx, c, seen|1<<nx)
			}
		}
	}
	walk(s, 0, 1<<s)
	return best
}

// TestGroupReachIsShortestPath: the safe bound's weights equal brute-
// force shortest paths through the lookahead matrix — round trips on
// the diagonal, unbounded for a lone shard — including matrices that
// break the triangle inequality.
func TestGroupReachIsShortestPath(t *testing.T) {
	looks := [][][]Duration{UniformLookahead(1, 1000), nonMetricMatrix(), lineMatrix(4, 1000)}
	rng := rand.New(rand.NewSource(5))
	for n := 2; n <= 6; n++ {
		for rep := 0; rep < 20; rep++ {
			look := UniformLookahead(n, 0)
			for s := range look {
				for d := range look[s] {
					if s != d {
						look[s][d] = Duration(1 + rng.Intn(9000))
					}
				}
			}
			looks = append(looks, look)
		}
	}
	for x, look := range looks {
		ks := make([]*Kernel, len(look))
		for i := range ks {
			ks[i] = NewKernel(1)
		}
		g := NewGroup(look, ks...)
		for s := range look {
			for d := range look {
				if got, want := g.reach[s][d], bruteReach(look, s, d); got != want {
					t.Fatalf("matrix %d %v: reach[%d][%d] = %v, shortest path %v", x, look, s, d, got, want)
				}
			}
		}
	}
	if g := newTestGroup(1); g.reach[0][0] != Duration(math.MaxInt64) {
		t.Fatalf("one-shard reach %v, want unbounded", g.reach[0][0])
	}
	if g := NewGroup(nonMetricMatrix(), NewKernel(1), NewKernel(1), NewKernel(1)); g.reach[0][2] != 2000 || g.reach[2][2] != 2000 {
		t.Fatalf("non-metric reach[0][2] = %v, reach[2][2] = %v, want 2000 each", g.reach[0][2], g.reach[2][2])
	}
}

// TestGroupMatrixPostEnforcedPerPair: the Post floor is the pair's own
// matrix entry, not the group minimum — a post that clears the minimum
// but undercuts its pair promise must panic.
func TestGroupMatrixPostEnforcedPerPair(t *testing.T) {
	g := lineMatrixGroup(3, Duration(1000))
	g.Kernel(0).At(100, func() {
		// Distance-1 pair at exactly the promise: legal.
		g.Kernel(0).Post(1, Time(100+1000), func() {})
		defer func() {
			if recover() == nil {
				t.Error("post below the pair promise did not panic")
			}
			g.Stop()
		}()
		// Distance-2 pair beyond the group minimum but below the pair's
		// 2000 promise: must panic.
		g.Kernel(0).Post(2, Time(100+1999), func() {})
	})
	g.Run()
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
	single.Kernel(0).At(50, func() {})
	if err := single.Run(); err != nil {
		t.Fatal(err)
	}
	st = single.SyncStats()
	if st.HorizonPublishes != 0 || st.NullMessages != 0 || st.Wakeups != 0 {
		t.Fatalf("one-shard group recorded synchronization: %+v", st)
	}
}
