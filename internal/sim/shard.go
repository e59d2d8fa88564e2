package sim

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Sharded virtual time: a Group couples N kernels (shards), each with
// its own event heap and virtual clock, and runs them on their own OS
// threads under conservative (Chandy-Misra-Bryant style) synchronization.
//
// The contract with the model layer is a single primitive: an event
// running on shard s may Post a callback to shard d, but only at a
// timestamp at least look(s,d) beyond s's current clock, where
// look(s,d) is the group's per-pair lookahead matrix. The lookahead is
// physical: in the HPC cost model every cross-cluster signal rides
// cube hops that cost at minimum HopFixed each (plus 0.05 µs/byte of
// wire time), so shards whose clusters sit k links apart can promise
// k hops of slack — a shard's present can never influence a distant
// neighbor's near future. That bound is what lets a shard dispatch
// ahead without ever having to roll back.
//
// Safety ("no event from the future"): shard i only dispatches an
// event at time t when t < safe(i), a lower bound on every future
// cross-shard arrival at i. Every such arrival descends from an event
// that exists now: an undispatched event on some shard s (at or after
// s's published front) or a cross in flight to some shard d (at or
// after that mailbox's earliest entry). Each cross edge of the causal
// chain adds at least its lookahead and a local step adds nothing
// negative, so the arrival lands no sooner than reach(s,i) after its
// ancestor, where reach is the shortest path through the lookahead
// matrix and reach(i,i) the shortest round trip. safe(i) is the
// minimum, over one scan of the shared state, of
//
//   - front(s) + reach(s,i) for every shard s,
//   - pending(s→d) + reach(d,i) for every mailbox into a shard d ≠ i,
//   - pending(s→i) for every mailbox into i (already posted, no slack).
//
// That is the earliest arrival the matrix allows from the current
// fronts, so no per-pair promise could be sound and exceed it. It also
// makes progress unconditional: the shard holding the globally
// earliest event finds every term above it once its inbound mail is
// drained, and dispatches.
//
// Determinism: cross-shard events are merged not in wall-clock arrival
// order but by the total key (at, source shard, per-pair sequence),
// and at equal timestamps staged crosses dispatch before local events.
// Every run of the same program therefore dispatches the same events
// in the same order on every shard, regardless of GOMAXPROCS or
// scheduling jitter. The lookahead matrix and the safe bound change
// only when a shard dispatches, never what order events dispatch in.
type Group struct {
	kernels []*Kernel
	n       int
	// look[s][d] is the pairwise lookahead Post enforces; minLook its
	// smallest off-diagonal entry. reach[s][d] is the shortest path
	// through look from s to d (see shortestReach), the weight of s's
	// terms in d's safe bound.
	look    [][]Duration
	minLook Duration
	reach   [][]Duration

	// mail[s][d] is the bounded SPSC mailbox from shard s to shard d
	// (nil on the diagonal). staging[d] is the receive-side merge heap,
	// touched only by shard d's loop.
	mail    [][]*mailbox
	staging []crossHeap

	// localMin[i] is shard i's published earliest undispatched event
	// (its heap/now-queue front or staged cross), MaxInt64 when none.
	// Together with the mailboxes' minPending these are what safeTime
	// scans.
	localMin []atomic.Int64
	// movesBegun and movesDone count drains that move mail into a
	// staging heap, bumped before the first move and after the last.
	// safeTime uses them as a sequence lock: a scan no move overlapped
	// is a consistent snapshot.
	movesBegun atomic.Uint64
	movesDone  atomic.Uint64

	wake []chan struct{}

	stopFlag atomic.Bool

	// Idle flags are atomics read lock-free by notifiers: a shard that
	// publishes new state (localMin raise, post) only wakes peers
	// currently parked in select. The handshake is sound because
	// enterIdle sets the flag and then re-checks for work under detMu:
	// either the re-check sees the notifier's store, or the store came
	// later and the notifier sees the flag.
	detMu    sync.Mutex
	idle     []atomic.Bool
	nIdle    int
	finished bool
	done     chan struct{}

	// Cross-traffic accounting, owned by the respective shard loops and
	// read only after a run joins.
	posted     []uint64
	dispatched []uint64

	// Synchronization-layer accounting (the sim.sync.* counters), one
	// struct per shard, owned by that shard's loop.
	sync []syncCounters
}

// syncCounters tallies what one shard spends on conservative
// synchronization: every raise of its published front, how many of
// those followed a grant run that posted no cross (null messages —
// pure time advance, no traffic), every park/wake signal delivered,
// and how the dispatched events group into grant batches (one
// safe-bound computation each).
type syncCounters struct {
	frontPubs   uint64
	nullPubs    uint64
	wakeups     uint64
	drainRuns   uint64
	drainEvents uint64
}

// SyncStats aggregates the sim.sync.* counters over all shards. Read
// only while no run is in progress; counts accumulate across runs.
type SyncStats struct {
	HorizonPublishes uint64 // front raises published to the peers (sim.sync.horizon_publishes)
	NullMessages     uint64 // front raises after a grant run that posted no cross (sim.sync.null_messages)
	Wakeups          uint64 // park/wake signals delivered (sim.sync.wakeups)
	DrainRuns        uint64 // grant batches dispatching >= 1 event (sim.sync.drain_runs)
	DrainedEvents    uint64 // events dispatched inside grant batches (sim.sync.drained_events)
}

// AvgDrainRun is the mean number of events dispatched per safe-bound
// computation — the grant-based draining payoff (higher is cheaper).
func (s SyncStats) AvgDrainRun() float64 {
	if s.DrainRuns == 0 {
		return 0
	}
	return float64(s.DrainedEvents) / float64(s.DrainRuns)
}

// SyncStats sums the synchronization counters across shards.
func (g *Group) SyncStats() SyncStats {
	var t SyncStats
	for i := range g.sync {
		t.HorizonPublishes += g.sync[i].frontPubs
		t.NullMessages += g.sync[i].nullPubs
		t.Wakeups += g.sync[i].wakeups
		t.DrainRuns += g.sync[i].drainRuns
		t.DrainedEvents += g.sync[i].drainEvents
	}
	return t
}

const (
	noEvent     = int64(math.MaxInt64)
	mailboxCap  = 1 << 15
	maxDeadline = Time(math.MaxInt64)

	// spinPasses bounds the pre-park polling phase. A dry shard that has
	// already published its front yields the processor a few times and
	// re-checks for arriving mail or a raised safe bound before paying
	// for the park/wake handshake (detMu, channel send, scheduler
	// round trip). In a cross-shard dependency ping-pong each yield runs
	// the posting shard, so the handoff lands at runqueue cost; a shard
	// that is genuinely out of work burns the few passes once and parks.
	spinPasses = 4
)

// crossEvent is one cross-shard post: a callback with its timestamp,
// origin shard, and per-pair sequence number. (at, src, seq) is a
// total order over all crosses a shard will ever receive.
type crossEvent struct {
	at  Time
	src int32
	seq uint64
	fn  func()
}

func crossLess(a, b crossEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// mailbox is the bounded queue between one ordered shard pair. The
// source appends under mu; the destination drains under mu. minPending
// mirrors the earliest queued timestamp for lock-free G computation.
type mailbox struct {
	mu         sync.Mutex
	q          []crossEvent
	seq        uint64
	minPending atomic.Int64
}

// crossHeap is a binary min-heap of staged crosses ordered by
// (at, src, seq), owned by the destination shard's loop.
type crossHeap struct {
	h []crossEvent
}

func (c *crossHeap) push(ev crossEvent) {
	c.h = append(c.h, ev)
	i := len(c.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !crossLess(c.h[i], c.h[p]) {
			break
		}
		c.h[i], c.h[p] = c.h[p], c.h[i]
		i = p
	}
}

func (c *crossHeap) pop() crossEvent {
	top := c.h[0]
	last := len(c.h) - 1
	c.h[0] = c.h[last]
	c.h[last] = crossEvent{}
	c.h = c.h[:last]
	i, n := 0, last
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && crossLess(c.h[r], c.h[l]) {
			m = r
		}
		if !crossLess(c.h[m], c.h[i]) {
			break
		}
		c.h[i], c.h[m] = c.h[m], c.h[i]
		i = m
	}
	return top
}

// satAdd adds a duration to a time without wrapping past MaxInt64.
func satAdd(t Time, d Duration) Time {
	if int64(t) > math.MaxInt64-int64(d) {
		return Time(math.MaxInt64)
	}
	return t + Time(d)
}

// UniformLookahead builds the n×n lookahead matrix with every
// off-diagonal entry d — the single-scalar protocol PR 9 shipped,
// still exactly right when no topology separates the shards.
func UniformLookahead(n int, d Duration) [][]Duration {
	m := make([][]Duration, n)
	for i := range m {
		m[i] = make([]Duration, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = d
			}
		}
	}
	return m
}

// NewGroup couples the given kernels into one sharded simulation.
// lookahead is the per-pair promise matrix: lookahead[s][d] bounds how
// soon a post from shard s may land on shard d past s's clock
// (diagonal entries are ignored; off-diagonal entries must be
// positive, and Post panics on any violation). Use UniformLookahead
// when every pair shares one bound. Kernels must be fresh to this
// group (a kernel can belong to at most one).
func NewGroup(lookahead [][]Duration, kernels ...*Kernel) *Group {
	if len(kernels) == 0 {
		panic("sim: group needs at least one kernel")
	}
	n := len(kernels)
	if len(lookahead) != n {
		panic("sim: lookahead matrix must be shards x shards")
	}
	minLook := Duration(math.MaxInt64)
	for s := range lookahead {
		if len(lookahead[s]) != n {
			panic("sim: lookahead matrix must be shards x shards")
		}
		for d, v := range lookahead[s] {
			if s == d {
				continue
			}
			if v <= 0 {
				panic("sim: group lookahead must be positive")
			}
			if v < minLook {
				minLook = v
			}
		}
	}
	g := &Group{
		kernels:    kernels,
		n:          n,
		look:       lookahead,
		minLook:    minLook,
		reach:      shortestReach(lookahead),
		mail:       make([][]*mailbox, n),
		staging:    make([]crossHeap, n),
		localMin:   make([]atomic.Int64, n),
		wake:       make([]chan struct{}, n),
		idle:       make([]atomic.Bool, n),
		posted:     make([]uint64, n),
		dispatched: make([]uint64, n),
		sync:       make([]syncCounters, n),
	}
	for i, k := range kernels {
		if k.group != nil {
			panic("sim: kernel already belongs to a group")
		}
		k.group = g
		k.shard = i
		g.wake[i] = make(chan struct{}, 1)
		g.mail[i] = make([]*mailbox, n)
		for j := 0; j < n; j++ {
			if j != i {
				g.mail[i][j] = &mailbox{}
				g.mail[i][j].minPending.Store(noEvent)
			}
		}
	}
	return g
}

// shortestReach closes the lookahead matrix under path composition
// (Floyd–Warshall with saturating adds): reach[s][d] is the cheapest
// chain of cross posts from shard s to shard d, and reach[s][s] the
// cheapest round trip through s — MaxInt64 when there is none, as in a
// one-shard group. An entry can undercut look[s][d], because nothing
// makes the matrix obey the triangle inequality (core's cube-distance
// matrix need not).
func shortestReach(look [][]Duration) [][]Duration {
	n := len(look)
	reach := make([][]Duration, n)
	for s := range reach {
		reach[s] = append([]Duration(nil), look[s]...)
		reach[s][s] = Duration(math.MaxInt64)
	}
	for k := 0; k < n; k++ {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if via := Duration(satAdd(Time(reach[s][k]), reach[k][d])); via < reach[s][d] {
					reach[s][d] = via
				}
			}
		}
	}
	return reach
}

// Size returns the number of shards.
func (g *Group) Size() int { return g.n }

// Lookahead returns the group's minimum pairwise lookahead — the
// tightest promise any shard pair operates under.
func (g *Group) Lookahead() Duration {
	if g.n == 1 {
		return 0
	}
	return g.minLook
}

// PairLookahead returns the conservative promise from shard s to shard
// d (0 on the diagonal).
func (g *Group) PairLookahead(s, d int) Duration { return g.look[s][d] }

// Kernel returns shard i's kernel.
func (g *Group) Kernel(i int) *Kernel { return g.kernels[i] }

// Now returns the trailing virtual clock across shards.
func (g *Group) Now() Time {
	min := maxDeadline
	for _, k := range g.kernels {
		if k.now < min {
			min = k.now
		}
	}
	return min
}

// CrossPosts returns the number of events routed between shards over
// the group's lifetime. Call only while no run is in progress.
func (g *Group) CrossPosts() uint64 {
	var total uint64
	for _, p := range g.posted {
		total += p
	}
	return total
}

// Scheduled sums event-scheduling counters across shards.
func (g *Group) Scheduled() uint64 {
	var total uint64
	for _, k := range g.kernels {
		total += k.Scheduled()
	}
	return total
}

// Stop makes a running Run/RunUntil return after in-flight events
// complete. Safe to call from any shard's event context.
func (g *Group) Stop() {
	g.stopFlag.Store(true)
	for i := range g.wake {
		g.notify(i)
	}
}

// Post enqueues fn to run on shard dst at time at. From a grouped
// kernel, a genuinely cross-shard post must respect the pairwise
// lookahead: at >= now + look(src,dst), measured on the posting
// shard's clock. Posts to the kernel's own shard (and all posts on an
// ungrouped kernel, where dst must be 0) degrade to plain At
// scheduling.
func (k *Kernel) Post(dst int, at Time, fn func()) {
	g := k.group
	if g == nil {
		if dst != 0 {
			panic("sim: Post to a nonzero shard on an ungrouped kernel")
		}
		k.At(at, fn)
		return
	}
	if dst == k.shard {
		k.At(at, fn)
		return
	}
	if at < satAdd(k.now, g.look[k.shard][dst]) {
		panic("sim: cross-shard post violates lookahead")
	}
	g.post(k.shard, dst, at, fn)
}

// Shard returns the kernel's shard index within its group (0 when
// ungrouped).
func (k *Kernel) Shard() int { return k.shard }

// Group returns the group the kernel belongs to, or nil.
func (k *Kernel) Group() *Group { return k.group }

func (g *Group) post(src, dst int, at Time, fn func()) {
	mb := g.mail[src][dst]
	mb.mu.Lock()
	for len(mb.q) >= mailboxCap {
		// Bounded mailbox full: the receiver is behind in wall-clock
		// terms. Drain our own inbound mail (only appends to our
		// staging heap, safe mid-event) and yield until it catches up,
		// so a pair of mutually-posting shards cannot deadlock.
		mb.mu.Unlock()
		g.drain(src)
		runtime.Gosched()
		mb.mu.Lock()
	}
	seq := mb.seq
	mb.seq++
	mb.q = append(mb.q, crossEvent{at: at, src: int32(src), seq: seq, fn: fn})
	if cur := mb.minPending.Load(); int64(at) < cur {
		mb.minPending.Store(int64(at))
	}
	mb.mu.Unlock()
	g.posted[src]++
	g.notifyIdle(src, dst)
}

// notify wakes shard dst unconditionally (Stop, completion sweeps).
func (g *Group) notify(dst int) {
	select {
	case g.wake[dst] <- struct{}{}:
	default:
	}
}

// notifyIdle wakes shard dst only if it is parked, charging the signal
// to src's wakeup counter when one is actually delivered. Callers must
// have already published the state that creates work for dst; a busy
// dst picks that state up at the top of its own loop.
func (g *Group) notifyIdle(src, dst int) {
	if g.idle[dst].Load() {
		select {
		case g.wake[dst] <- struct{}{}:
			g.sync[src].wakeups++
		default:
		}
	}
}

// drain moves every queued inbound cross into shard i's staging heap.
// The lowered localMin is published before minPending is cleared, and
// the move is bracketed by movesBegun/movesDone so safeTime can tell
// when its scan raced it.
func (g *Group) drain(i int) bool {
	moved := false
	for s := 0; s < g.n; s++ {
		mb := g.mail[s][i]
		if mb == nil || mb.minPending.Load() == noEvent {
			continue
		}
		mb.mu.Lock()
		if len(mb.q) > 0 {
			if !moved {
				g.movesBegun.Add(1)
			}
			moved = true
			entryMin := noEvent
			for idx, ev := range mb.q {
				g.staging[i].push(ev)
				if int64(ev.at) < entryMin {
					entryMin = int64(ev.at)
				}
				mb.q[idx] = crossEvent{}
			}
			mb.q = mb.q[:0]
			if cur := g.localMin[i].Load(); entryMin < cur {
				g.localMin[i].Store(entryMin)
			}
			mb.minPending.Store(noEvent)
		}
		mb.mu.Unlock()
	}
	if moved {
		g.movesDone.Add(1)
	}
	return moved
}

// curMin is shard i's earliest undispatched event: local queue front
// or staged cross. Owned by shard i's loop.
func (g *Group) curMin(i int) int64 {
	min := noEvent
	if ev := g.kernels[i].front(); ev != nil {
		min = int64(ev.at)
	}
	if h := g.staging[i].h; len(h) > 0 && int64(h[0].at) < min {
		min = int64(h[0].at)
	}
	return min
}

// publishLocalMin refreshes shard i's published front after a grant
// run; posted reports whether the run posted a cross. A raise lifts
// each peer j's bound term front(i) + reach(i,j), so it is the
// protocol's one announcement: counted as a front publish, and as a
// null message when no cross traffic came with it. It wakes only the
// parked peers it can unblock: after the raise, j's bound is at most
// lm + reach(i,j), so a peer whose own front lies at or beyond that
// stays blocked whatever else moved. Any wake this leaves for later is
// re-evaluated on every subsequent raise and, once all shards park, by
// enterIdle's exact completion sweep.
func (g *Group) publishLocalMin(i int, posted bool) {
	lm := g.curMin(i)
	prev := g.localMin[i].Load()
	if lm == prev {
		return
	}
	g.localMin[i].Store(lm)
	if lm < prev || g.n == 1 {
		return
	}
	g.sync[i].frontPubs++
	if !posted {
		g.sync[i].nullPubs++
	}
	for j := 0; j < g.n; j++ {
		if j == i || !g.idle[j].Load() {
			continue
		}
		fj := g.localMin[j].Load()
		if fj != noEvent && Time(fj) < satAdd(Time(lm), g.reach[i][j]) {
			g.notifyIdle(i, j)
		}
	}
}

// safeTime is the bound below which shard i may freely dispatch: no
// future cross-shard arrival can carry a smaller timestamp (see Group).
// Inbound mail must be drained first, as the shard loop does: an
// undrained cross caps the bound at its own timestamp.
//
// Each read is a valid bound at its own instant, but the scan is not
// one instant: a drain moves an event from mail[s][d] (read in row s)
// to localMin[d] (read in row d). A scan that reads localMin[d] before
// the move and the mailbox after it misses the event and returns a
// bound above it, which lets a shard dispatch past a cross that event
// will post. So the scan retries until no drain overlapped it. (Both
// places weight the event by reach(d,i). The one drain whose weights
// differ, into i, runs only on i's own goroutine, which is either the
// one scanning or parked for enterIdle's completion sweep.) With
// drains excluded, the row order is sound: a dispatch creates local
// events at or after its own time (covered by the localMin that
// preceded it) and posts crosses before publishLocalMin raises its
// localMin, and each row reads localMin before that shard's outbound
// mailboxes.
func (g *Group) safeTime(i int) Time {
	for {
		done := g.movesDone.Load()
		safe := g.scanSafe(i)
		if g.movesBegun.Load() == done {
			return safe
		}
	}
}

// scanSafe is one unsynchronized pass of safeTime.
func (g *Group) scanSafe(i int) Time {
	safe := maxDeadline
	for s := 0; s < g.n; s++ {
		if t := satAdd(Time(g.localMin[s].Load()), g.reach[s][i]); t < safe {
			safe = t
		}
		for d, mb := range g.mail[s] {
			if mb == nil {
				continue
			}
			t := Time(mb.minPending.Load())
			if d != i {
				t = satAdd(t, g.reach[d][i])
			}
			if t < safe {
				safe = t
			}
		}
	}
	return safe
}

// dispatchOne runs shard i's earliest dispatchable work item — a
// staged cross or a local event — applying the deterministic merge
// rule: at equal timestamps crosses go first, ordered by (src, seq).
// Returns false when the front is not dispatchable under (safe,
// deadline).
func (g *Group) dispatchOne(i int, safe, deadline Time) bool {
	k := g.kernels[i]
	var localAt Time = maxDeadline
	ev := k.front()
	if ev != nil {
		localAt = ev.at
	}
	var crossAt Time = maxDeadline
	if h := g.staging[i].h; len(h) > 0 {
		crossAt = h[0].at
	}
	if crossAt <= localAt {
		if crossAt == maxDeadline || crossAt > deadline || crossAt >= safe {
			return false
		}
		ce := g.staging[i].pop()
		if ce.at < k.now {
			panic("sim: cross-shard event arrived in the past")
		}
		k.now = ce.at
		g.dispatched[i]++
		ce.fn()
		return true
	}
	if localAt > deadline || localAt >= safe {
		return false
	}
	k.popFront(ev)
	if ev.canceled {
		k.nCanceled--
		k.recycle(ev)
		return true
	}
	k.now = ev.at
	fn := ev.fn
	k.recycle(ev)
	fn()
	return true
}

// hasWork reports whether shard i could make progress right now.
// Called under detMu with the system momentarily stable.
func (g *Group) hasWork(i int, deadline Time) bool {
	for s := 0; s < g.n; s++ {
		if mb := g.mail[s][i]; mb != nil && mb.minPending.Load() != noEvent {
			return true
		}
	}
	cand := g.curMin(i)
	if cand == noEvent || Time(cand) > deadline {
		return false
	}
	return Time(cand) < g.safeTime(i)
}

// allQuiescent reports that no undispatched event at or before the
// deadline exists anywhere. Under detMu with all shards idle this is
// exact, and quiescence is stable: events are only created by
// dispatching events.
func (g *Group) allQuiescent(deadline Time) bool {
	for i := 0; i < g.n; i++ {
		if v := g.localMin[i].Load(); v != noEvent && Time(v) <= deadline {
			return false
		}
		for j := 0; j < g.n; j++ {
			if mb := g.mail[i][j]; mb != nil {
				if v := mb.minPending.Load(); v != noEvent && Time(v) <= deadline {
					return false
				}
			}
		}
	}
	return true
}

// enterIdle records shard i as out of dispatchable work. The idle flag
// is set before the final hasWork re-check, so any notifier publishing
// after the re-check sees the flag and wakes i (and one publishing
// before is seen by the re-check). The last shard in either detects
// completion (closing done) or, when events remain but everyone
// stalled on stale bounds, wakes exactly the shards that now have
// dispatchable work — the safe bound guarantees the shard holding the
// earliest event is among them.
func (g *Group) enterIdle(i int, deadline Time) (finished, retry bool) {
	g.detMu.Lock()
	defer g.detMu.Unlock()
	if g.finished {
		return true, false
	}
	if !g.idle[i].Load() {
		g.idle[i].Store(true)
		g.nIdle++
	}
	if g.hasWork(i, deadline) {
		g.idle[i].Store(false)
		g.nIdle--
		return false, true
	}
	if g.nIdle == g.n {
		if g.allQuiescent(deadline) {
			g.finished = true
			close(g.done)
			return true, false
		}
		for j := 0; j < g.n; j++ {
			if j != i && g.hasWork(j, deadline) {
				g.notify(j)
			}
		}
	}
	return false, false
}

// spinForWork is the cheap half of the idle handshake: with its front
// already published, yield and poll a few times for
// newly-arrived mail or a raised safe bound before parking. Returns
// true when the shard should re-enter its dispatch loop. Purely a
// wall-clock optimization: the spin delays parking, it never changes
// what the protocol promises or the order events dispatch in.
func (g *Group) spinForWork(i int, deadline Time) bool {
	if g.n == 1 {
		return false
	}
	for pass := 0; pass < spinPasses; pass++ {
		runtime.Gosched()
		if g.stopFlag.Load() || g.kernels[i].stopped {
			return true
		}
		if g.drain(i) {
			return true
		}
		if cand := g.curMin(i); cand != noEvent && Time(cand) <= deadline && Time(cand) < g.safeTime(i) {
			return true
		}
	}
	return false
}

func (g *Group) exitIdle(i int) {
	g.detMu.Lock()
	if g.idle[i].Load() {
		g.idle[i].Store(false)
		g.nIdle--
	}
	g.detMu.Unlock()
}

// shardLoop is one shard's dispatch loop for a single run: compute the
// safe-advance bound once, drain every dispatchable event below it in
// one grant run, publish the raised front, and only then decide
// whether to re-arm or park. Between a dry pass and parking sits the
// bounded yield-and-poll spin that resolves most handoffs without
// parking.
func (g *Group) shardLoop(i int, deadline Time) {
	k := g.kernels[i]
	for {
		if g.stopFlag.Load() || k.stopped {
			g.Stop()
			return
		}
		g.drain(i)
		safe := g.safeTime(i)
		ran, posted := uint64(0), g.posted[i]
		for g.dispatchOne(i, safe, deadline) {
			ran++
			if g.stopFlag.Load() || k.stopped {
				g.Stop()
				return
			}
		}
		g.publishLocalMin(i, g.posted[i] != posted)
		if ran > 0 {
			g.sync[i].drainRuns++
			g.sync[i].drainEvents += ran
			continue
		}
		if g.drain(i) {
			continue
		}
		if g.spinForWork(i, deadline) {
			continue
		}
		finished, retry := g.enterIdle(i, deadline)
		if finished {
			return
		}
		if retry {
			continue
		}
		select {
		case <-g.wake[i]:
			g.exitIdle(i)
		case <-g.done:
			return
		}
	}
}

// run executes one parallel episode until quiescence-at-deadline or
// Stop. Setup and teardown happen on the caller's goroutine.
func (g *Group) run(deadline Time) {
	g.stopFlag.Store(false)
	g.finished = false
	g.nIdle = 0
	g.done = make(chan struct{})
	for i := range g.idle {
		g.idle[i].Store(false)
	}
	for i, k := range g.kernels {
		k.stopped = false
		g.localMin[i].Store(g.curMin(i))
		// Drain any stale wakeup from a prior run.
		select {
		case <-g.wake[i]:
		default:
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < g.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.shardLoop(i, deadline)
		}(i)
	}
	wg.Wait()
}

// Run dispatches across all shards until every queue and mailbox
// drains or Stop is called. Mirrors Kernel.Run: if non-daemon
// processes remain blocked at quiescence it returns a *DeadlockError
// aggregated over every shard.
func (g *Group) Run() error {
	g.run(maxDeadline)
	if g.stopFlag.Load() {
		return nil
	}
	var blocked []BlockedProc
	var at Time
	for _, k := range g.kernels {
		if k.now > at {
			at = k.now
		}
		for _, p := range k.procs {
			if (p.state == procParked || p.state == procNew) && !p.daemon {
				blocked = append(blocked, BlockedProc{Name: p.name, Reason: p.waitReason})
			}
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].Name < blocked[j].Name })
	return &DeadlockError{At: at, Procs: blocked}
}

// RunUntil dispatches events with timestamps <= deadline on every
// shard, then advances all clocks to the deadline, exactly like the
// serial Kernel.RunUntil.
func (g *Group) RunUntil(deadline Time) {
	g.run(deadline)
	if g.stopFlag.Load() {
		return
	}
	for _, k := range g.kernels {
		if k.now < deadline {
			k.now = deadline
		}
	}
}

// RunFor advances all shards by at most d past the trailing clock.
func (g *Group) RunFor(d Duration) { g.RunUntil(g.Now().Add(d)) }

// Shutdown kills parked processes on every shard. Call only after a
// run has returned.
func (g *Group) Shutdown() {
	for _, k := range g.kernels {
		k.Shutdown()
	}
}
