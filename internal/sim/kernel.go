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
	// timestamps and drained cross-shard events, and a FIFO
	// (nowQ[nowHead:]) for events scheduled at the current instant. The
	// FIFO is the fast path — process wakeups, token handoffs, and
	// Spawn all schedule "at now" — and it is already in (at, seq) order
	// because seq is monotonic and the queue only ever receives events
	// stamped with the current time. Every event in the heap precedes
	// every event in the FIFO that shares its timestamp (a local one was
	// pushed while now was still earlier, a cross carries a seq below
	// every local one), so dispatch just compares the two fronts.
	events  []*event
	nowQ    []*event
	nowHead int

	// free is the event shell pool.
	free []*event

	// The run token: exactly one coroutine runs simulation code at a
	// time, the run goroutine (the one in Run or RunUntil, or a Group
	// shard's) or a proc's runner. During a run, or a Group shard's
	// grant, the token carries the event loop, bounded by deadline
	// (noRun outside one; see Proc.park). panicked holds a panic a
	// runner caught, for the run goroutine to re-raise (see resume).
	deadline Time
	panicked any

	// dispatched counts the events dispatch has run. posts counts the
	// cross-shard events this kernel has posted (see Group.post): the
	// low bits of each one's seq.
	dispatched uint64
	posts      uint64

	procs   []*Proc     // all procs ever spawned
	stopped atomic.Bool // set by Group.Stop
	// grouped is set while a Group run drives the kernel: a grant that
	// runs dry does not end the run, the token holder opens the next
	// one (Group.nextGrant).
	grouped bool
	probe   Probe

	// oldUnwoken lists armed parks that outlived their proc's 64-park
	// window without being woken (see Proc.Arm); in practice empty.
	oldUnwoken []parkRef

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

// SetProbe installs (or, with nil, removes) the lifecycle probe.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

// NewKernel returns a kernel with its virtual clock at zero. The seed
// feeds the kernel's random source, which is used only by components
// that explicitly ask for randomness (e.g. random backoff) and is
// created on the first such request; the kernel itself is
// deterministic for a given seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		seed:     seed,
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
	ev.seq = k.seq | localSeq
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
		k:     k,
		name:  name,
		state: procNew,
		body:  fn,
	}
	k.procs = append(k.procs, p)
	if k.probe != nil {
		k.probe.ProcEvent(k.now, name, "spawn")
	}
	p.resumeAt(k.now)
	return p
}

// procMain runs p's body on p's runner. When the body returns, or
// panics, p is done and the runner yields to the run goroutine; a
// panic other than Shutdown's kill is left for it to re-raise, wrapped
// with p's name.
func (k *Kernel) procMain(p *Proc) {
	defer func() {
		r := recover()
		p.state = procDone
		if k.probe != nil {
			k.probe.ProcEvent(k.now, p.name, "done")
		}
		if r != nil && r != errKilled {
			k.panicked = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
		}
	}()
	fn := p.body
	p.body = nil
	fn(p)
}

// dispatchOnProc is dispatch on a proc's runner. A panic in an event
// callback there would end the runner, so it is recovered and left for
// the run goroutine to re-raise.
func (k *Kernel) dispatchOnProc() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			k.panicked = r
			next = nil
		}
	}()
	return k.dispatch()
}

// Scheduled returns how many events have been scheduled over the
// kernel's lifetime (including later-stopped ones). It is the
// host-side work proxy behind events-per-message efficiency metrics:
// fewer scheduled events for the same delivered traffic means a
// cheaper simulation.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// front returns the earliest pending event without removing it, or
// nil when nothing is queued.
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

// dispatch runs events in (at, seq) order until one starts or resumes
// a proc, and returns that proc. It returns nil when the queue drains,
// the Group stops, or the next event lies past the run's deadline. In
// a Group run a grant that runs dry is followed by the next one, opened
// here on whichever coroutine holds the token, so dispatch returns nil
// only when the whole run ends.
func (k *Kernel) dispatch() *Proc {
	for !k.stopped.Load() {
		ev := k.front()
		if ev == nil || ev.at > k.deadline {
			if k.grouped && k.group.nextGrant(k.shard) {
				continue
			}
			return nil
		}
		k.remove(ev)
		k.dispatched++
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

// noRun is the dispatch bound outside a run or grant: below every
// event time, so a proc that parks then (Shutdown) dispatches nothing.
const noRun = Time(-1)

// runTo dispatches events with timestamps <= bound: a run, or a Group
// shard's first grant and every grant after it. The caller's goroutine
// is the run goroutine: it dispatches up to the first proc resume and
// runs that proc on its runner. A parking proc dispatches on (see
// Proc.park), so the run goroutine gets control back only when the
// token must pass to another proc, or when a proc ends.
func (k *Kernel) runTo(bound Time) {
	k.deadline = bound
	defer func() { k.deadline = noRun }()
	for p := k.dispatch(); p != nil; p = k.resume(p) {
	}
}

// Run dispatches events until the event queue drains. If processes
// remain blocked then, Run returns a *DeadlockError describing them;
// the processes stay parked and can be cleaned up with Shutdown.
func (k *Kernel) Run() error {
	k.runTo(maxDeadline)
	return deadlock(k)
}

// RunFor advances the simulation by at most d, then returns. Parked
// processes are not a deadlock under RunFor: they may be awaiting
// events that the caller will inject later.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// RunUntil dispatches events with timestamps <= deadline and then sets
// the clock to deadline (if it is in the future). An event scheduled
// exactly at the deadline fires.
func (k *Kernel) RunUntil(deadline Time) {
	k.runTo(deadline)
	if k.now < deadline {
		k.now = deadline
	}
}

// Shutdown kills all parked processes, so their runners exit. It is
// safe to call after Run returns (including after a deadlock).
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if p.state == procParked {
			p.killed = true
			k.resume(p)
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

// deadlock reports the non-daemon procs still blocked on kernels whose
// queues have drained: a *DeadlockError at the latest of their clocks,
// its procs sorted by name, or nil when none is blocked. It allocates
// only when one is.
func deadlock(kernels ...*Kernel) error {
	var err *DeadlockError
	for _, k := range kernels {
		for _, p := range k.procs {
			if (p.state == procParked || p.state == procNew) && !p.daemon {
				if err == nil {
					err = &DeadlockError{}
				}
				err.Procs = append(err.Procs, BlockedProc{Name: p.name, Reason: p.WaitReason()})
			}
		}
	}
	if err == nil {
		return nil
	}
	for _, k := range kernels {
		err.At = max(err.At, k.now)
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
