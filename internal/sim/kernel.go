package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Kernel is a deterministic discrete-event simulation kernel.
// Create one with NewKernel, spawn processes with Spawn, and drive the
// simulation with Run or RunUntil. A Kernel must not be shared between
// host goroutines: all access happens either before Run or from within
// simulated processes and scheduled events.
type Kernel struct {
	now Time
	seq uint64
	rng *rand.Rand

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

	running *Proc // the proc currently holding the run token, if any
	yield   chan struct{}
	procs   []*Proc // all procs ever spawned
	alive   int     // procs spawned but not yet finished
	nextID  int
	stopped bool
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
// that explicitly ask for randomness (e.g. random backoff); the kernel
// itself is deterministic for a given seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

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
	}
	p.resumeFn = func() { k.switchTo(p) }
	k.nextID++
	k.procs = append(k.procs, p)
	k.alive++
	if k.probe != nil {
		k.probe.ProcEvent(k.now, name, "spawn")
	}
	k.At(k.now, func() { k.startProc(p, fn) })
	return p
}

// startProc launches the goroutine backing p and gives it the token.
// Must be called from kernel-loop context.
func (k *Kernel) startProc(p *Proc, fn func(p *Proc)) {
	go func() {
		<-p.resume
		defer func() {
			p.state = procDone
			k.alive--
			if k.probe != nil {
				k.probe.ProcEvent(k.now, p.name, "done")
			}
			if r := recover(); r != nil && r != errKilled {
				p.panicked = r
			}
			k.yield <- struct{}{}
		}()
		fn(p)
	}()
	k.switchTo(p)
}

// switchTo hands the run token to p and waits until p blocks or
// finishes. Must only be called from kernel-loop context (inside an
// event callback), never from a running proc.
func (k *Kernel) switchTo(p *Proc) {
	if p.state == procDone {
		return
	}
	prev := k.running
	k.running = p
	p.state = procRunning
	p.resume <- struct{}{}
	<-k.yield
	k.running = prev
	if p.panicked != nil {
		panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, p.panicked))
	}
}

// Running returns the proc currently holding the run token, or nil when
// the kernel loop itself is running.
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
// events remain queued; a subsequent Run resumes them.
func (k *Kernel) Stop() { k.stopped = true }

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

// Run dispatches events until the event queue drains or Stop is
// called. If processes remain blocked when the queue drains, Run
// returns a *DeadlockError describing them; the processes stay parked
// and can be cleaned up with Shutdown.
func (k *Kernel) Run() error {
	k.stopped = false
	for !k.stopped {
		ev := k.front()
		if ev == nil {
			break
		}
		k.popFront(ev)
		if ev.canceled {
			k.nCanceled--
			k.recycle(ev)
			continue
		}
		k.now = ev.at
		fn := ev.fn
		k.recycle(ev)
		fn()
	}
	if k.stopped {
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
	k.stopped = false
	for !k.stopped {
		ev := k.front()
		if ev == nil || ev.at > deadline {
			break
		}
		k.popFront(ev)
		if ev.canceled {
			k.nCanceled--
			k.recycle(ev)
			continue
		}
		k.now = ev.at
		fn := ev.fn
		k.recycle(ev)
		fn()
	}
	if !k.stopped && k.now < deadline {
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
