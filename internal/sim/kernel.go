package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
)

// Kernel is a deterministic discrete-event simulation kernel.
// Create one with NewKernel, spawn processes with Spawn, and drive the
// simulation with Run or RunUntil. A Kernel must not be shared between
// host goroutines: all access happens either before Run or from within
// simulated processes and scheduled events.
type Kernel struct {
	now  Time
	seq  uint64
	seed int64
	rng  *rand.Rand // made from seed on the first Rand call

	// Pending events live in two places: a 4-ary min-heap for future
	// timestamps, and a FIFO (nowQ[nowHead:]) for events scheduled at
	// the current instant. The FIFO is the fast path — process wakeups,
	// token handoffs, and Spawn all schedule "at now" — and it is
	// already in (at, seq) order because seq is monotonic and the queue
	// only ever receives events stamped with the current time. Every
	// event in the heap predates every event in the FIFO that shares
	// its timestamp (it was pushed while now was still earlier, hence
	// with a smaller seq), so dispatch just compares the two fronts.
	events  []*event
	nowQ    []*event
	nowHead int

	// free is the event shell pool; nCanceled counts canceled shells
	// still resident, for compaction.
	free      []*event
	nCanceled int

	// The run token: exactly one goroutine runs simulation code at a
	// time, and every hand-off is a channel operation. running is the
	// proc holding the token, nil while events dispatch. During a run,
	// or a Group shard's grant, the token carries the event loop,
	// bounded by deadline (noRun outside one; see release). yield
	// carries the token back to the goroutine waiting in switchTo when
	// the run ends, or at a park outside a run (Shutdown). panicked
	// holds a panic raised off that goroutine, for switchTo to re-raise.
	running  *Proc
	yield    chan struct{}
	deadline Time
	panicked any

	// cross holds the cross-shard events drained from this shard's
	// mailboxes (see Group.drain), touched only by the token holder;
	// always empty on a standalone kernel. dispatched counts the items
	// dispatch has run, canceled shells included.
	cross      crossHeap
	dispatched uint64

	procs   []*Proc // all procs ever spawned
	alive   int     // procs spawned but not yet finished
	nextID  int
	stopped atomic.Bool
	probe   Probe

	// oldUnwoken lists armed parks that outlived their proc's 64-park
	// window without being woken (see Proc.Arm); in practice empty.
	oldUnwoken []parkRef

	// compactions counts lazy-cancel sweeps over the kernel's lifetime
	// (see event.go); exposed so the trace registry can verify the
	// compaction policy under cancel-heavy loads.
	compactions uint64

	// Sharded execution (see shard.go): the group this kernel belongs
	// to and its shard index, nil/0 for a standalone kernel.
	group *Group
	shard int
}

// Probe observes process lifecycle transitions. It exists so a tracing
// layer can watch the kernel without sim importing it; observation must
// not schedule events or touch the clock.
type Probe interface {
	ProcEvent(at Time, proc string, what string)
}

// CompactionProbe is an optional extension of Probe: a probe that also
// implements it observes every lazy-cancel compaction sweep (at the
// virtual time it ran, with the number of canceled shells swept).
type CompactionProbe interface {
	QueueCompaction(at Time, swept int)
}

// SetProbe installs (or, with nil, removes) the lifecycle probe.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

// Compactions returns how many lazy-cancel compaction sweeps the
// kernel has performed over its lifetime.
func (k *Kernel) Compactions() uint64 { return k.compactions }

// NewKernel returns a kernel with its virtual clock at zero. The seed
// feeds the kernel's random source, which is used only by components
// that explicitly ask for randomness (e.g. random backoff) and is
// created on the first such request; the kernel itself is
// deterministic for a given seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		seed:     seed,
		yield:    make(chan struct{}),
		deadline: noRun,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// At schedules fn to run at time at (clamped to the present) and
// returns a Timer that can cancel it. Steady-state scheduling is
// allocation-free: the shell comes from the kernel's pool.
func (k *Kernel) At(at Time, fn func()) Timer {
	if at < k.now {
		at = k.now
	}
	ev := k.alloc()
	ev.at = at
	ev.seq = k.seq
	ev.fn = fn
	k.seq++
	if at == k.now {
		ev.index = nowIdx
		k.nowQ = append(k.nowQ, ev)
	} else {
		k.heapPush(ev)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// Spawn creates a new simulated process running fn. The process starts
// at the current virtual time, after already-scheduled work at this
// instant. The name appears in deadlock reports and traces.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		id:     k.nextID,
		name:   name,
		resume: make(chan struct{}),
		state:  procNew,
		body:   fn,
	}
	k.nextID++
	k.procs = append(k.procs, p)
	k.alive++
	if k.probe != nil {
		k.probe.ProcEvent(k.now, name, "spawn")
	}
	p.resumeAt(k.now)
	return p
}

// procMain is the body of the goroutine backing p. On exit p gives up
// the token like a parking proc, except that a panic goes straight
// back to the goroutine waiting in switchTo, to be re-raised there.
func (k *Kernel) procMain(p *Proc) {
	defer func() {
		r := recover()
		p.state = procDone
		k.alive--
		if k.probe != nil {
			k.probe.ProcEvent(k.now, p.name, "done")
		}
		if r != nil && r != errKilled {
			k.panicked = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
			k.handOff(nil)
			return
		}
		k.release(p)
	}()
	fn := p.body
	p.body = nil
	fn(p)
}

// handOff passes the run token to p, starting p's goroutine if p is
// new, or with p nil back to the goroutine waiting in switchTo. The
// caller touches no simulation state afterwards.
func (k *Kernel) handOff(p *Proc) {
	if p == nil {
		k.yield <- struct{}{}
		return
	}
	k.running = p
	if p.state == procNew {
		p.state = procRunning
		go k.procMain(p)
		return
	}
	p.state = procRunning
	p.resume <- struct{}{}
}

// switchTo hands the run token to p and waits until it comes back: when
// the run or grant ends, or when p parks or finishes outside one
// (Shutdown). A panic raised while the token was away is re-raised
// here.
func (k *Kernel) switchTo(p *Proc) {
	if p.state == procDone {
		return
	}
	k.handOff(p)
	<-k.yield
	k.running = nil
	if v := k.panicked; v != nil {
		k.panicked = nil
		panic(v)
	}
}

// release gives up the token held by p's goroutine, p having parked or
// finished. It dispatches events here until one starts or resumes a
// proc; if that is p itself it reports true and p runs on with no
// goroutine switch. Otherwise the token goes to that proc, or back to
// switchTo when there is none, which outside a run (noRun) is at once.
func (k *Kernel) release(p *Proc) (resumed bool) {
	k.running = nil
	next := k.dispatchOnProc()
	if next == p {
		k.running = p
		return true
	}
	k.handOff(next)
	return false
}

// dispatchOnProc is dispatch on a proc's goroutine. A panic in an event
// callback there would kill the process, so it is recovered and left
// for switchTo to re-raise on the goroutine that started the run.
func (k *Kernel) dispatchOnProc() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			k.panicked = r
			next = nil
		}
	}()
	return k.dispatch()
}

// Running returns the proc currently holding the run token, or nil
// while events dispatch.
func (k *Kernel) Running() *Proc { return k.running }

// Alive reports the number of spawned processes that have not finished.
func (k *Kernel) Alive() int { return k.alive }

// Scheduled returns how many events have been scheduled over the
// kernel's lifetime (including later-canceled ones). It is the
// host-side work proxy behind events-per-message efficiency metrics:
// fewer scheduled events for the same delivered traffic means a
// cheaper simulation.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// Stop makes Run return after the current event completes. Pending
// events remain queued; a subsequent Run resumes them. On a grouped
// kernel it stops the whole Group.
func (k *Kernel) Stop() {
	if k.group != nil {
		k.group.Stop()
		return
	}
	k.stopped.Store(true)
}

// front returns the earliest pending event without removing it, or
// nil when nothing is queued. Canceled shells are still visible here;
// the dispatch loops sweep them.
func (k *Kernel) front() *event {
	hasNow := k.nowHead < len(k.nowQ)
	hasHeap := len(k.events) > 0
	switch {
	case hasNow && hasHeap:
		if eventLess(k.nowQ[k.nowHead], k.events[0]) {
			return k.nowQ[k.nowHead]
		}
		return k.events[0]
	case hasNow:
		return k.nowQ[k.nowHead]
	case hasHeap:
		return k.events[0]
	}
	return nil
}

// popFront removes ev, which must be the event front() just returned.
func (k *Kernel) popFront(ev *event) {
	if ev.index == nowIdx {
		k.nowQ[k.nowHead] = nil
		k.nowHead++
		if k.nowHead == len(k.nowQ) {
			k.nowQ = k.nowQ[:0]
			k.nowHead = 0
		}
		ev.index = freeIdx
		return
	}
	k.heapPop()
}

// dispatch runs events in (at, seq) order until one starts or resumes
// a proc, and returns that proc. It returns nil when the queue drains,
// Stop is called, or the next event lies past the run's deadline.
// Drained crosses merge in by the Group's rule: at equal timestamps
// they go before local events, in (src, seq) order.
func (k *Kernel) dispatch() *Proc {
	for !k.stopped.Load() {
		ev := k.front()
		if h := k.cross.h; len(h) > 0 && (ev == nil || h[0].at <= ev.at) {
			if h[0].at > k.deadline {
				return nil
			}
			ce := k.cross.pop()
			if ce.at < k.now {
				panic("sim: cross-shard event arrived in the past")
			}
			k.now = ce.at
			k.dispatched++
			ce.fn()
			continue
		}
		if ev == nil || ev.at > k.deadline {
			return nil
		}
		k.popFront(ev)
		k.dispatched++
		if ev.canceled {
			k.nCanceled--
			k.recycle(ev)
			continue
		}
		k.now = ev.at
		fn, p := ev.fn, ev.proc
		k.recycle(ev)
		if p == nil {
			fn()
		} else if p.state != procDone {
			return p
		}
	}
	return nil
}

// run clears Stop and dispatches events with timestamps <= deadline.
func (k *Kernel) run(deadline Time) {
	k.stopped.Store(false)
	k.runTo(deadline)
}

// noRun is the dispatch bound outside a run or grant: below every
// event time, so a proc that parks then (Shutdown) dispatches nothing.
const noRun = Time(-1)

// runTo dispatches events with timestamps <= bound: a run, or one grant
// of a Group shard. The caller's goroutine dispatches until the first
// proc switch; from then on the token and the event loop move from proc
// to proc (see release), and come back here when the run ends.
func (k *Kernel) runTo(bound Time) {
	k.deadline = bound
	defer func() { k.deadline = noRun }()
	if p := k.dispatch(); p != nil {
		k.switchTo(p)
	}
}

// Run dispatches events until the event queue drains or Stop is
// called. If processes remain blocked when the queue drains, Run
// returns a *DeadlockError describing them; the processes stay parked
// and can be cleaned up with Shutdown.
func (k *Kernel) Run() error {
	k.run(maxDeadline)
	if k.stopped.Load() {
		return nil
	}
	for _, p := range k.procs {
		if (p.state == procParked || p.state == procNew) && !p.daemon {
			return k.deadlockError()
		}
	}
	return nil
}

// RunFor advances the simulation by at most d, then returns. Parked
// processes are not a deadlock under RunFor: they may be awaiting
// events that the caller will inject later.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// RunUntil dispatches events with timestamps <= deadline and then sets
// the clock to deadline (if it is in the future). An event scheduled
// exactly at the deadline fires.
func (k *Kernel) RunUntil(deadline Time) {
	k.run(deadline)
	if !k.stopped.Load() && k.now < deadline {
		k.now = deadline
	}
}

// Shutdown kills all parked processes so their goroutines exit. It is
// safe to call after Run returns (including after a deadlock).
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if p.state == procParked {
			p.killed = true
			k.switchTo(p)
		}
	}
}

// Blocked returns the processes currently parked on a simulation
// primitive, in spawn order. Useful for debugging tools (cdb).
func (k *Kernel) Blocked() []*Proc {
	var out []*Proc
	for _, p := range k.procs {
		if p.state == procParked {
			out = append(out, p)
		}
	}
	return out
}

func (k *Kernel) deadlockError() *DeadlockError {
	err := &DeadlockError{At: k.now}
	for _, p := range k.procs {
		if (p.state == procParked || p.state == procNew) && !p.daemon {
			err.Procs = append(err.Procs, BlockedProc{
				Name:   p.name,
				Reason: p.waitReason,
			})
		}
	}
	sort.Slice(err.Procs, func(i, j int) bool { return err.Procs[i].Name < err.Procs[j].Name })
	return err
}

// BlockedProc describes one process stuck at deadlock time.
type BlockedProc struct {
	Name   string
	Reason string
}

// DeadlockError reports that the event queue drained while processes
// were still blocked — the simulated application is deadlocked.
type DeadlockError struct {
	At    Time
	Procs []BlockedProc
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at %v with %d blocked proc(s):", e.At, len(e.Procs))
	for _, p := range e.Procs {
		fmt.Fprintf(&b, " [%s: %s]", p.Name, p.Reason)
	}
	return b.String()
}
