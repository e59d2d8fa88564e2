package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sharded virtual time: a Group couples N kernels (shards), each with
// its own event heap and virtual clock, and runs them on their own OS
// threads under conservative (Chandy-Misra-Bryant style) synchronization.
//
// The contract with the model layer is a single primitive: an event
// running on one shard may Post a callback to another, but only at a
// timestamp at least the promise in force beyond the poster's current
// clock. The group has two promises, both physical. In the HPC cost
// model a cube hop costs HopFixed plus 0.05 µs/byte of wire time, and
// every cross-shard post is a hop's completion posted at the hop's
// start, so every post has at least one HopFixed of slack: the narrow
// promise. A message of 20 bytes or more spends at least HopFixed more
// on the wire, and every message leaves its node through its own
// cluster's up-link before it can take a cube link, so anything a
// message sent from now on posts lands at least two HopFixed out: the
// wide promise. Only a short message already in the fabric can post
// with less, so the model layer takes a hold (HoldNarrow) for each one
// while it travels, and the group keeps the wide promise whenever no
// hold is out. Either promise is what lets a shard dispatch ahead
// without ever having to roll back.
//
// Safety ("no event from the future"): shard i only dispatches an
// event at time t when t < safe(i), a lower bound on every future
// cross-shard arrival at i. Every such arrival descends from an event
// that exists now: an undispatched event on some shard s (at or after
// s's published front) or a cross in flight to some shard d (at or
// after the earliest entry of d's inbox). Each cross edge of the causal
// chain adds at least the promise L and a local step adds nothing
// negative, so the arrival lands at least L after an ancestor on
// another shard, and at least 2L after one on i itself, whose chain
// must leave i and come back. safe(i) is one minimum, over one scan of
// the shared state, of
//
//   - front(s) + L and pending(s) + L for every other shard s,
//   - front(i) + 2L, the round trip (unbounded in a one-shard group),
//   - pending(i) for i's own inbox (already posted, no slack).
//
// L is the wide promise when no hold is out as the scan reads the hold
// count, after every front and every other shard's inbox and before
// i's own, and the narrow one otherwise (see scanSafe). A hold taken
// during a grant does not narrow the bound that grant already holds,
// except on the holder's own shard: its message can come back there
// one wide and one narrow promise after the hold, before the wide
// round trip, so HoldNarrow lowers the running grant's bound to that
// instant.
//
// That is the earliest arrival the promises allow from the current
// fronts. It also makes progress unconditional: the shard holding the
// globally earliest event finds every term above it once its inbox is
// drained, and dispatches.
//
// A shard runs in grants: an ordinary run of its kernel bounded by
// safe(i)-1, in which procs hand the run token to each other as on a
// standalone kernel. Between grants its token holder publishes its
// front, drains its inbox and computes the next bound, or parks when
// there is nothing it may dispatch (nextGrant). That holder is
// whichever coroutine ran the grant dry, usually the runner of a proc
// that just parked, so the step costs no switch. The shard's own
// goroutine resumes its procs' runners, as Run's caller does on a
// standalone kernel.
//
// Determinism: a drained cross becomes an ordinary event in its
// shard's heap, merged not in wall-clock arrival order but by the
// kernel's one key (at, seq), whose seq layout (see eventLess) puts
// crosses before same-instant local events, in (source shard, posting
// order). Every run of the same program therefore dispatches the same
// events in the same order on every shard, regardless of GOMAXPROCS or
// scheduling jitter. The promises, the holds and the safe bound change
// only when a shard dispatches, never what order events dispatch in.
type Group struct {
	kernels []*Kernel
	n       int
	// narrow and wide are the two promises between any two shards, in
	// force while a hold is out and while none is. narrowRT and wideRT
	// are the round trips out of a shard and back, twice each, the
	// weight of a shard's own front in its safe bound; unbounded in a
	// one-shard group, where no post can come back.
	narrow, wide     Duration
	narrowRT, wideRT Duration
	// holds counts the narrowings out (HoldNarrow, ReleaseNarrow): the
	// short messages in the model's fabric.
	holds atomic.Int64

	// inbox[d] is the bounded queue every other shard posts to shard d
	// through; drain moves it into d's event heap.
	inbox []*inbox

	// localMin[i] is shard i's published earliest undispatched event,
	// MaxInt64 when none. Together with the inboxes' minPending these
	// are what safeTime scans.
	localMin []atomic.Int64
	// movesBegun and movesDone count drains that move an inbox into an
	// event heap, bumped before the move and after it. safeTime uses
	// them as a sequence lock: a scan no move overlapped is a
	// consistent snapshot.
	movesBegun atomic.Uint64
	movesDone  atomic.Uint64

	wake []chan struct{}

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

	// Synchronization-layer accounting (the sim.sync.* counters), one
	// struct per shard, owned by that shard's token holder.
	sync []syncCounters
}

// syncCounters tallies what one shard spends on conservative
// synchronization: every raise of its published front, how many of
// those followed a grant run that posted no cross (null messages —
// pure time advance, no traffic), every park/wake signal delivered,
// and how the dispatched events group into grant batches (one
// safe-bound computation each). grantFrom and grantPosts are the
// kernel's dispatched and posts counts when its current grant opened.
type syncCounters struct {
	frontPubs   uint64
	nullPubs    uint64
	wakeups     uint64
	drainRuns   uint64
	drainEvents uint64

	grantFrom, grantPosts uint64
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
	inboxCap    = 1 << 15
	maxDeadline = Time(math.MaxInt64)

	// spinPasses bounds the pre-park polling phase. A dry shard that has
	// already published its front yields the processor a few times and
	// re-checks for arriving crosses or a raised safe bound before paying
	// for the park/wake handshake (detMu, channel send, scheduler
	// round trip). In a cross-shard dependency ping-pong each yield runs
	// the posting shard, so the handoff lands at runqueue cost; a shard
	// that is genuinely out of work burns the few passes once and parks.
	spinPasses = 4
)

// crossEvent is one cross-shard post: a callback with its timestamp
// and its seq in the destination's event order (see eventLess).
type crossEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// inbox is the bounded queue into one shard. Every other shard appends
// under mu; the destination drains under mu. minPending mirrors the
// earliest queued timestamp for the lock-free safe-bound scan.
type inbox struct {
	mu         sync.Mutex
	q          []crossEvent
	minPending atomic.Int64
}

// satAdd adds a duration to a time without wrapping past MaxInt64.
func satAdd(t Time, d Duration) Time {
	if int64(t) > math.MaxInt64-int64(d) {
		return Time(math.MaxInt64)
	}
	return t + Time(d)
}

// NewGroup couples the given kernels into one sharded simulation.
// narrow and wide are the promises between any two shards: a post from
// one shard lands on another no sooner than narrow past the poster's
// clock while a hold is out (HoldNarrow), and no sooner than wide while
// none is. Both must be positive, narrow no more than wide, and Post
// panics on any violation. Kernels must be fresh to this group (a
// kernel can belong to at most one).
func NewGroup(narrow, wide Duration, kernels ...*Kernel) *Group {
	if len(kernels) == 0 {
		panic("sim: group needs at least one kernel")
	}
	if narrow <= 0 || wide < narrow {
		panic("sim: group lookahead must be positive, the narrow promise no more than the wide")
	}
	n := len(kernels)
	narrowRT, wideRT := Duration(math.MaxInt64), Duration(math.MaxInt64)
	if n > 1 {
		narrowRT = Duration(satAdd(Time(narrow), narrow))
		wideRT = Duration(satAdd(Time(wide), wide))
	}
	g := &Group{
		kernels:  kernels,
		n:        n,
		narrow:   narrow,
		wide:     wide,
		narrowRT: narrowRT,
		wideRT:   wideRT,
		inbox:    make([]*inbox, n),
		localMin: make([]atomic.Int64, n),
		wake:     make([]chan struct{}, n),
		idle:     make([]atomic.Bool, n),
		sync:     make([]syncCounters, n),
	}
	for i, k := range kernels {
		if k.group != nil {
			panic("sim: kernel already belongs to a group")
		}
		k.group = g
		k.shard = i
		g.wake[i] = make(chan struct{}, 1)
		g.inbox[i] = &inbox{}
		g.inbox[i].minPending.Store(noEvent)
	}
	return g
}

// Lookahead returns the two promises between any two shards: narrow,
// in force while a hold is out, and wide, while none is.
func (g *Group) Lookahead() (narrow, wide Duration) { return g.narrow, g.wide }

// promise is the lookahead in force: narrow while a hold is out, wide
// while none is.
func (g *Group) promise() Duration {
	if g.holds.Load() != 0 {
		return g.narrow
	}
	return g.wide
}

// HoldNarrow narrows the group's promise to the narrow one until the
// matching ReleaseNarrow, which may run on another shard. A hold stands
// for one journey that may post with less than the wide promise: the
// model takes it before the journey's first hop and releases it after
// its last post is made. The holder promises that everything the
// journey posts lands at least wide after the hold was taken, and at
// least narrow past each poster's clock. So a post can come back to
// the holder's own shard one wide and one narrow promise after the
// hold, before the wide round trip its running grant may be bounded
// by, and the hold lowers that bound to the instant before (outside a
// run the bound is noRun, below every instant). On an ungrouped kernel
// it does nothing.
func (k *Kernel) HoldNarrow() {
	g := k.group
	if g == nil {
		return
	}
	g.holds.Add(1)
	if back := satAdd(satAdd(k.now, g.wide), g.narrow) - 1; back < k.deadline {
		k.deadline = back
	}
}

// ReleaseNarrow ends a hold HoldNarrow took on any shard of the group.
func (k *Kernel) ReleaseNarrow() {
	g := k.group
	if g == nil {
		return
	}
	if g.holds.Add(-1) < 0 {
		panic("sim: ReleaseNarrow without a hold")
	}
}

// CrossPosts returns the number of events routed between shards over
// the group's lifetime. Call only while no run is in progress.
func (g *Group) CrossPosts() uint64 {
	var total uint64
	for _, k := range g.kernels {
		total += k.posts
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

// Stop makes a running Run return after in-flight events complete.
// Safe to call from any shard's event context.
func (g *Group) Stop() {
	for i, k := range g.kernels {
		k.stopped.Store(true)
		g.notify(i)
	}
}

// Post enqueues fn to run on shard dst at time at. From a grouped
// kernel, a genuinely cross-shard post must respect the promise in
// force: at >= now + narrow while a hold is out, at >= now + wide while
// none is, measured on the posting shard's clock. Posts to the kernel's
// own shard (and all posts on an ungrouped kernel, where dst must be 0)
// degrade to plain At scheduling.
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
	if look := g.promise(); at < satAdd(k.now, look) {
		panic(fmt.Sprintf("sim: cross-shard post violates lookahead: clock %v, target %v, promise %v", k.now, at, look))
	}
	g.post(k.shard, dst, at, fn)
}

// Group returns the group the kernel belongs to, or nil.
func (k *Kernel) Group() *Group { return k.group }

func (g *Group) post(src, dst int, at Time, fn func()) {
	k := g.kernels[src]
	seq := uint64(src)<<crossSrcShift | k.posts
	k.posts++
	ib := g.inbox[dst]
	ib.mu.Lock()
	for len(ib.q) >= inboxCap && !g.kernels[dst].stopped.Load() {
		// Bounded inbox full: the receiver is behind in wall-clock
		// terms. Drain our own inbox (only pushes onto our event heap,
		// safe mid-event) and yield until it catches up, so shards
		// posting to each other cannot deadlock. A stopping receiver
		// drains no more, so the bound gives way: the post is kept for
		// the next run.
		ib.mu.Unlock()
		g.drain(src)
		runtime.Gosched()
		ib.mu.Lock()
	}
	ib.q = append(ib.q, crossEvent{at: at, seq: seq, fn: fn})
	if cur := ib.minPending.Load(); int64(at) < cur {
		ib.minPending.Store(int64(at))
	}
	ib.mu.Unlock()
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
// dst picks that state up when it opens its next grant.
func (g *Group) notifyIdle(src, dst int) {
	if g.idle[dst].Load() {
		select {
		case g.wake[dst] <- struct{}{}:
			g.sync[src].wakeups++
		default:
		}
	}
}

// drain moves every queued cross in shard i's inbox into its event
// heap, where each becomes an ordinary event with the seq it was
// posted with. The lowered localMin is published before minPending is
// cleared, and the move is bracketed by movesBegun/movesDone so
// safeTime can tell when its scan raced it.
func (g *Group) drain(i int) bool {
	ib := g.inbox[i]
	if ib.minPending.Load() == noEvent {
		return false
	}
	k := g.kernels[i]
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if len(ib.q) == 0 {
		return false
	}
	g.movesBegun.Add(1)
	defer g.movesDone.Add(1)
	entryMin := noEvent
	for idx, ce := range ib.q {
		if ce.at < k.now {
			panic("sim: cross-shard event arrived in the past")
		}
		ev := k.alloc()
		ev.at, ev.seq, ev.fn = ce.at, ce.seq, ce.fn
		k.heapPush(ev)
		entryMin = min(entryMin, int64(ce.at))
		ib.q[idx] = crossEvent{}
	}
	ib.q = ib.q[:0]
	if entryMin < g.localMin[i].Load() {
		g.localMin[i].Store(entryMin)
	}
	ib.minPending.Store(noEvent)
	return true
}

// curMin is shard i's earliest undispatched event. Only i's token
// holder calls it, but for Run before the shards start and enterIdle's
// sweep while i is parked.
func (g *Group) curMin(i int) int64 {
	if ev := g.kernels[i].front(); ev != nil {
		return int64(ev.at)
	}
	return noEvent
}

// publishLocalMin refreshes shard i's published front after a grant
// run; posted reports whether the run posted a cross. A raise lifts
// each peer's bound term front(i) + promise, so it is the protocol's
// one announcement: counted as a front publish, and as a null message
// when no cross traffic came with it. It wakes only the parked peers
// it can unblock: after the raise, a peer's bound is at most lm plus
// the promise in force, so a peer whose own front lies at or beyond
// that stays blocked whatever else moved. Any wake this leaves for
// later (a hold released after the filter read the count) is
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
	reach := satAdd(Time(lm), g.promise())
	for j := 0; j < g.n; j++ {
		if j == i || !g.idle[j].Load() {
			continue
		}
		fj := g.localMin[j].Load()
		if fj != noEvent && Time(fj) < reach {
			g.notifyIdle(i, j)
		}
	}
}

// safeTime is the bound below which shard i may freely dispatch: no
// future cross-shard arrival can carry a smaller timestamp (see Group).
// The inbox must be drained first, as openGrant does: an undrained
// cross caps the bound at its own timestamp.
//
// Each read is a valid bound at its own instant, but the scan is not
// one instant: a drain moves an event from inbox[d] to localMin[d]. A
// scan that reads localMin[d] before the move and the inbox after it
// misses the event and returns a bound above it, which lets a shard
// dispatch past a cross that event will post. So the scan retries
// until no drain overlapped it. (For a drain into another shard, both
// places weight the event by the lookahead. A drain into i itself
// moves it from a bare term to one weighted by the round trip, but
// runs only on i's token holder, which is also the one coroutine that
// scans for i, and on no one while i is parked for enterIdle's
// completion sweep.)
// With drains excluded, the order is sound: a dispatch creates local
// events at or after its own time (covered by the localMin that
// preceded it) and posts crosses before publishLocalMin raises its
// localMin, and the scan reads every localMin before any inbox.
func (g *Group) safeTime(i int) Time {
	for {
		done := g.movesDone.Load()
		safe := g.scanSafe(i)
		if g.movesBegun.Load() == done {
			return safe
		}
	}
}

// scanSafe is one unsynchronized pass of safeTime: every front, then
// every other shard's inbox, folded into one minimum that is one
// promise away, then the hold count, then i's own inbox, bare. The
// promise is the wide one only if the count reads 0, and that one read
// is enough. Take a post into i that lands below the wide bound, and
// the message whose hop makes it. If the front the pass read of the
// message's sender was published before the send, the send descends
// from what the pass covered, and the message left on its own
// cluster's up-link, so it posts at least wide after that (a chain
// that began on i left i first: by the same argument or, sent on i,
// within HoldNarrow's bound). Otherwise the sender counted the hold
// before it published that front, so the count, read after the front
// and sequentially consistent with it, sees the hold unless the
// message has landed; and it has not, for it posts into i after the
// pass read i's inbox, which comes after the count, or the bare term
// would cover the post. So the pass keeps the narrow promise.
func (g *Group) scanSafe(i int) Time {
	other := noEvent
	for s := range g.localMin {
		if s != i {
			other = min(other, g.localMin[s].Load())
		}
	}
	own := g.localMin[i].Load()
	for d, ib := range g.inbox {
		if d != i {
			other = min(other, ib.minPending.Load())
		}
	}
	look, rt := g.wide, g.wideRT
	if g.holds.Load() != 0 {
		look, rt = g.narrow, g.narrowRT
	}
	return min(satAdd(Time(other), look), satAdd(Time(own), rt), Time(g.inbox[i].minPending.Load()))
}

// hasWork reports whether shard i could make progress right now.
// Called under detMu with the system momentarily stable.
func (g *Group) hasWork(i int) bool {
	if g.inbox[i].minPending.Load() != noEvent {
		return true
	}
	cand := g.curMin(i)
	return cand != noEvent && Time(cand) < g.safeTime(i)
}

// allQuiescent reports that no undispatched event exists anywhere.
// Under detMu with all shards idle this is exact, and quiescence is
// stable: events are only created by dispatching events.
func (g *Group) allQuiescent() bool {
	for i := 0; i < g.n; i++ {
		if g.localMin[i].Load() != noEvent || g.inbox[i].minPending.Load() != noEvent {
			return false
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
func (g *Group) enterIdle(i int) (finished, retry bool) {
	g.detMu.Lock()
	defer g.detMu.Unlock()
	if g.finished {
		return true, false
	}
	if !g.idle[i].Load() {
		g.idle[i].Store(true)
		g.nIdle++
	}
	if g.hasWork(i) {
		g.idle[i].Store(false)
		g.nIdle--
		return false, true
	}
	if g.nIdle == g.n {
		if g.allQuiescent() {
			g.finished = true
			close(g.done)
			return true, false
		}
		for j := 0; j < g.n; j++ {
			if j != i && g.hasWork(j) {
				g.notify(j)
			}
		}
	}
	return false, false
}

// spinForWork is the cheap half of the idle handshake: with its front
// already published, yield and poll a few times for
// newly-arrived crosses or a raised safe bound before parking. Returns
// true when the shard should open its next grant. Purely a
// wall-clock optimization: the spin delays parking, it never changes
// what the protocol promises or the order events dispatch in.
func (g *Group) spinForWork(i int) bool {
	if g.n == 1 {
		return false
	}
	for pass := 0; pass < spinPasses; pass++ {
		runtime.Gosched()
		if g.kernels[i].stopped.Load() {
			return true
		}
		if g.drain(i) {
			return true
		}
		if cand := g.curMin(i); cand != noEvent && Time(cand) < g.safeTime(i) {
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

// openGrant starts shard i's next grant: it drains the inbox, notes
// the counts nextGrant compares at the grant's end, and returns the
// grant's bound, safe(i)-1.
func (g *Group) openGrant(i int) Time {
	k := g.kernels[i]
	g.drain(i)
	g.sync[i].grantFrom, g.sync[i].grantPosts = k.dispatched, k.posts
	return g.safeTime(i) - 1
}

// nextGrant is the step between two of shard i's grants, run by
// dispatch on whichever coroutine holds i's token when a grant runs
// dry: publish the raised front, count the grant, and open the next
// one; when the dry grant dispatched nothing and no cross arrived,
// first spin, then park idle until there may be work. It reports false
// when the run ends (finished or stopped), and the token then goes
// back to the shard's goroutine.
func (g *Group) nextGrant(i int) bool {
	k := g.kernels[i]
	if k.stopped.Load() {
		return false
	}
	sc := &g.sync[i]
	g.publishLocalMin(i, k.posts != sc.grantPosts)
	if ran := k.dispatched - sc.grantFrom; ran > 0 {
		sc.drainRuns++
		sc.drainEvents += ran
	} else if !g.drain(i) && !g.spinForWork(i) {
		finished, retry := g.enterIdle(i)
		if finished {
			return false
		}
		if !retry {
			select {
			case <-g.wake[i]:
				g.exitIdle(i)
			case <-g.done:
				return false
			}
		}
	}
	if k.stopped.Load() {
		return false
	}
	k.deadline = g.openGrant(i)
	return true
}

// shardLoop runs shard i for one Group run on the shard's goroutine:
// it opens the first grant and resumes the kernel's procs, and
// nextGrant opens every later grant where the one before ran dry.
func (g *Group) shardLoop(i int) {
	k := g.kernels[i]
	if k.stopped.Load() {
		return
	}
	k.grouped = true
	defer func() { k.grouped = false }()
	k.runTo(g.openGrant(i))
}

// Run dispatches across all shards until every queue and inbox drains
// or Stop is called. Mirrors Kernel.Run: if non-daemon processes remain
// blocked at quiescence it returns a *DeadlockError aggregated over
// every shard. Setup and teardown happen on the caller's goroutine. A
// panic on a shard stops the others and is re-raised here with its own
// value (the lowest shard's, if several panicked).
func (g *Group) Run() error {
	g.finished = false
	g.nIdle = 0
	g.done = make(chan struct{})
	for i := range g.idle {
		g.idle[i].Store(false)
	}
	for i, k := range g.kernels {
		k.stopped.Store(false)
		g.localMin[i].Store(g.curMin(i))
		// Drain any stale wakeup from a prior run.
		select {
		case <-g.wake[i]:
		default:
		}
	}
	var wg sync.WaitGroup
	panics := make([]any, g.n)
	for i := 0; i < g.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
					g.Stop()
				}
			}()
			g.shardLoop(i)
		}(i)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	if g.kernels[0].stopped.Load() {
		return nil
	}
	return deadlock(g.kernels...)
}
