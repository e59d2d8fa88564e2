// Package kern is the VORX node kernel: it runs subprocesses —
// independently scheduled threads of execution sharing one address
// space, each with its own stack — under a preemptive priority
// scheduler on one simulated 68020 CPU (paper §5).
//
// The kernel charges the calibrated m68k costs for context switches
// (80 µs full register save/restore), interrupt entry, semaphore
// operations, and system calls, and partitions every microsecond of
// CPU time into the categories the software oscilloscope displays
// (paper §6.2): user, system, and idle — with idle subdivided into
// waiting-for-input, waiting-for-output, mixed, and other.
package kern

import (
	"container/heap"
	"fmt"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

// Category classifies how a node spends its time.
type Category int

// Time categories, exactly the partition of paper §6.2.
const (
	CatUser Category = iota
	CatSystem
	CatIdleInput  // all blocked threads wait for input
	CatIdleOutput // all blocked threads wait for output
	CatIdleMixed  // some wait for input, others for output
	CatIdleOther  // waiting on something else (timer, device, ...)
	numCategories
)

// String returns the oscilloscope label for the category.
func (c Category) String() string {
	switch c {
	case CatUser:
		return "user"
	case CatSystem:
		return "system"
	case CatIdleInput:
		return "idle-input"
	case CatIdleOutput:
		return "idle-output"
	case CatIdleMixed:
		return "idle-mixed"
	case CatIdleOther:
		return "idle-other"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Categories lists all categories in display order.
func Categories() []Category {
	return []Category{CatUser, CatSystem, CatIdleInput, CatIdleOutput, CatIdleMixed, CatIdleOther}
}

// ParseCategory resolves an oscilloscope label back to its Category
// (the inverse of String), for loading recorded traces.
func ParseCategory(s string) (Category, bool) {
	for _, c := range Categories() {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// Interval is one accounted span of node time.
type Interval struct {
	Start, End sim.Time
	Cat        Category
}

// TraceSink receives accounting intervals as they close (used by the
// software oscilloscope).
type TraceSink func(node *Node, iv Interval)

// WaitKind tags what a blocked subprocess is waiting for.
type WaitKind int

// Wait kinds feeding the idle-time partition.
const (
	WaitNone WaitKind = iota
	WaitInput
	WaitOutput
	WaitOther
)

// Node is one processing node: a CPU, its scheduler, and its clock
// accounting. Create with NewNode, then spawn subprocesses.
type Node struct {
	k     *sim.Kernel
	costs *m68k.Costs
	name  string

	ready     taskHeap
	current   *task
	curTimer  sim.Timer
	curStart  sim.Time
	suspended *task // preempted by interrupt, resumes without a switch
	intrQ     []intrWork
	intrHead  int         // intrQ[intrHead:] is still queued
	lastSP    *Subprocess // last subprocess that held the CPU
	seq       uint64

	// Records the CPU path reuses instead of allocating, each made on
	// first use: the segment-completion callback (n.segmentDone, bound
	// once) and a free list of interrupt completions.
	segDone  func()
	intrFree *intrDone

	subs []*Subprocess

	inIntr      bool
	crashed     bool
	acctBusy    bool // accounting an active (non-idle) span
	incarnation uint32
	onCrash     []func()

	acctCat   Category
	acctSince sim.Time
	totals    [numCategories]sim.Duration
	sink      TraceSink
	tracer    *trace.Tracer

	// CtxSwitches counts full context switches performed.
	CtxSwitches int
	// Interrupts counts interrupt work items serviced.
	Interrupts int
}

type intrWork struct {
	d  sim.Duration
	fn func()
}

// intrDone is the completion of one armed interrupt: the work item its
// event runs once the service time has elapsed. Each armed event owns
// its record until it fires. Crash does not cancel that event, so a
// node restarted in the meantime still runs the work item it was armed
// with, exactly as a per-interrupt closure would.
type intrDone struct {
	n    *Node
	fn   func()
	fire func()    // r.run, bound once
	next *intrDone // free-list link
}

// newIntrDone takes a completion record from the node's free list, or
// makes one.
func (n *Node) newIntrDone(fn func()) *intrDone {
	r := n.intrFree
	if r != nil {
		n.intrFree, r.next = r.next, nil
	} else {
		r = &intrDone{n: n}
		r.fire = r.run
	}
	r.fn = fn
	return r
}

// run finishes the interrupt and moves on to the next queued one. The
// record is back on the free list before fn runs, which may raise
// further interrupts.
func (r *intrDone) run() {
	n, fn := r.n, r.fn
	r.fn = nil
	r.next, n.intrFree = n.intrFree, r
	if n.crashed {
		return
	}
	if fn != nil {
		fn()
	}
	n.runInterrupts()
}

// NewNode creates a node with its own CPU.
func NewNode(k *sim.Kernel, costs *m68k.Costs, name string) *Node {
	return &Node{k: k, costs: costs, name: name, acctCat: CatIdleOther, incarnation: 1}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Kernel returns the simulation kernel.
func (n *Node) Kernel() *sim.Kernel { return n.k }

// Costs returns the node's cost model.
func (n *Node) Costs() *m68k.Costs { return n.costs }

// Subprocesses returns all subprocesses ever spawned on this node.
func (n *Node) Subprocesses() []*Subprocess { return n.subs }

// SetTraceSink installs the oscilloscope trace consumer.
func (n *Node) SetTraceSink(s TraceSink) { n.sink = s }

// SetTracer installs the unified event tracer: every closed accounting
// interval becomes a KAccount span on this node's "cpu" lane, and
// crash/restart become instants. Nil-safe; a disabled tracer costs one
// predicate per interval.
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer = t }

// Tracer returns the node's unified tracer (possibly nil).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Totals returns the accumulated time per category, closing the
// in-progress interval as of now.
func (n *Node) Totals() map[Category]sim.Duration {
	n.account(n.idleCategory())
	out := make(map[Category]sim.Duration, numCategories)
	for c := Category(0); c < numCategories; c++ {
		out[c] = n.totals[c]
	}
	return out
}

// account closes the current accounting interval and switches the node
// to category cat.
func (n *Node) account(cat Category) {
	now := n.k.Now()
	if now > n.acctSince {
		n.totals[n.acctCat] += now.Sub(n.acctSince)
		if n.sink != nil {
			n.sink(n, Interval{Start: n.acctSince, End: now, Cat: n.acctCat})
		}
		n.tracer.EmitSpan(trace.KAccount, 0, n.name, "cpu", n.acctSince, n.acctCat.String())
	}
	n.acctCat = cat
	n.acctSince = now
}

// idleCategory derives the idle flavor from what the node's blocked
// subprocesses are waiting for.
func (n *Node) idleCategory() Category {
	in, out := false, false
	for _, sp := range n.subs {
		switch sp.waitKind {
		case WaitInput:
			in = true
		case WaitOutput:
			out = true
		}
	}
	switch {
	case in && out:
		return CatIdleMixed
	case in:
		return CatIdleInput
	case out:
		return CatIdleOutput
	default:
		return CatIdleOther
	}
}

// Crash halts the node as a hardware failure would: the running
// segment stops mid-flight (its remainder is never charged), the ready
// queue, suspended task, and pending interrupts are discarded, and
// every subprocess is abandoned where it stands — exactly what a node
// that "vanishes mid-session" (§3.1) looks like to the rest of the
// LAM. Abandoned subprocesses are marked daemons so the simulation's
// deadlock detector ignores them; they never run again, even after
// Restart. OnCrash hooks fire last. Idempotent.
func (n *Node) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.curTimer.Stop()
	n.current = nil
	n.suspended = nil
	n.ready = nil
	clear(n.intrQ)
	n.intrQ = n.intrQ[:0]
	n.intrHead = 0
	n.inIntr = false
	for _, sp := range n.subs {
		sp.proc.SetDaemon(true)
		sp.waitKind = WaitNone
	}
	n.account(CatIdleOther)
	n.tracer.Emit(trace.KCrash, 0, n.name, "cpu", "")
	for _, fn := range n.onCrash {
		fn()
	}
}

// Restart brings a crashed node's CPU back with empty state (a cold
// boot): subprocesses from before the crash stay dead; new ones may be
// spawned. Every boot gets a fresh incarnation number. No-op on a live
// node.
func (n *Node) Restart() {
	n.RestartAt(0)
}

// RestartAt restarts a crashed node with an incarnation of at least
// min — a machine fenced at incarnation floor F reboots with RestartAt
// (F) so its frames clear the fence. No-op on a live node.
func (n *Node) RestartAt(min uint32) {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.incarnation++
	if n.incarnation < min {
		n.incarnation = min
	}
	n.lastSP = nil
	n.account(n.idleCategory())
	n.tracer.Emit(trace.KRestart, 0, n.name, "cpu", "")
}

// Crashed reports whether the node is currently down.
func (n *Node) Crashed() bool { return n.crashed }

// Incarnation returns the node's boot count: 1 on first boot, bumped
// by every Restart. Frames stamped with a stale incarnation identify a
// zombie — a machine the supervisor has already declared dead and
// replaced — and can be fenced at the receiving netif.
func (n *Node) Incarnation() uint32 { return n.incarnation }

// Beacon schedules fn every d of virtual time until the returned stop
// function is called. Ticks that land while the node is crashed are
// skipped — a dead machine emits nothing — but the chain keeps ticking
// so a restarted node resumes emitting without rearming. The kernel
// uses this for supervision heartbeats; fn runs in event context and
// must not block.
func (n *Node) Beacon(d sim.Duration, fn func()) (stop func()) {
	if d <= 0 {
		panic("kern: Beacon needs a positive period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		if !n.crashed {
			fn()
		}
		n.k.After(d, tick)
	}
	n.k.After(d, tick)
	return func() { stopped = true }
}

// OnCrash registers a hook run when the node crashes (used by the
// network interface to free fabric buffers the dead node held).
func (n *Node) OnCrash(fn func()) { n.onCrash = append(n.onCrash, fn) }

// task is one CPU request: a sequence of (category, duration) segments
// consumed under preemption. A subprocess has at most one request
// outstanding (it blocks until the CPU delivers it), so each
// subprocess reuses one task record, made on its first request, which
// also keeps the CPU time the subprocess has consumed.
type task struct {
	sp     *Subprocess
	reason string // park reason while waiting for the CPU
	user   sim.Duration
	system sim.Duration // includes context switches on its behalf
	// segs holds the remaining segments in reverse order, head last,
	// so consuming the head and prepending a context switch are both
	// O(1) at the tail. It lives in buf until more segments pile up
	// than buf holds (repeated preemption mid-switch), then spills.
	segs []seg
	buf  [4]seg
	tok  sim.ParkToken // wakes the subprocess when the last segment ends
	prio int
	seq  uint64
	idx  int // heap index
}

type seg struct {
	cat Category
	rem sim.Duration
}

// charge attributes consumed CPU to the task's subprocess.
func (t *task) charge(cat Category, d sim.Duration) {
	if cat == CatUser {
		t.user += d
	} else {
		t.system += d
	}
}

// head is the segment the CPU consumes next.
func (t *task) head() *seg { return &t.segs[len(t.segs)-1] }

// pop drops the head segment.
func (t *task) pop() { t.segs = t.segs[:len(t.segs)-1] }

// prepend makes s the new head segment.
func (t *task) prepend(s seg) { t.segs = append(t.segs, s) }

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio // higher priority first
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return t
}

// exec runs the calling subprocess's CPU request — d of category cat —
// to completion, blocking the subprocess until the CPU has delivered
// every segment.
func (n *Node) exec(sp *Subprocess, cat Category, d sim.Duration) {
	if n.crashed {
		// The CPU is dead: the subprocess is stranded forever.
		sp.proc.SetDaemon(true)
		sp.proc.Arm("crashed " + n.name)
		sp.proc.Block()
		return
	}
	t := sp.task
	if t == nil {
		t = &task{sp: sp, reason: "cpu " + n.name}
		t.segs = t.buf[:0]
		sp.task = t
	}
	t.segs = append(t.segs[:0], seg{cat, d})
	t.prio, t.seq = sp.prio, n.seq
	n.seq++
	t.tok = sp.proc.Arm(t.reason)
	heap.Push(&n.ready, t)
	n.preemptIfNeeded(t)
	n.schedule()
	sp.proc.Block()
}

// preemptIfNeeded preempts the running task when t outranks it. The
// context switch back is charged when the victim is re-dispatched.
func (n *Node) preemptIfNeeded(t *task) {
	if n.current != nil && !n.inIntr && t.prio > n.current.prio {
		cur := n.stopCurrent()
		heap.Push(&n.ready, cur)
	}
}

// refreshIdle re-derives the idle category after a subprocess's wait
// kind changed while the CPU was idle.
func (n *Node) refreshIdle() {
	if n.current == nil && !n.inIntr && n.suspended == nil {
		n.account(n.idleCategory())
	}
}

// stopCurrent halts the running slice, accounting the elapsed portion,
// and returns the (partially consumed) task. current becomes nil.
func (n *Node) stopCurrent() *task {
	cur := n.current
	n.curTimer.Stop()
	elapsed := n.k.Now().Sub(n.curStart)
	h := cur.head()
	cur.charge(h.cat, elapsed)
	h.rem -= elapsed
	if h.rem <= 0 {
		cur.pop()
	}
	n.current = nil
	n.account(n.idleCategory())
	return cur
}

// schedule dispatches the best ready task if the CPU is free.
func (n *Node) schedule() {
	if n.crashed || n.current != nil || n.inIntr || n.suspended != nil {
		return
	}
	if n.ready.Len() == 0 {
		return
	}
	t := heap.Pop(&n.ready).(*task)
	if t.sp != n.lastSP {
		// Full context switch: save/restore all registers (80 µs).
		t.prepend(seg{CatSystem, n.costs.ContextSwitch})
		n.CtxSwitches++
	}
	n.lastSP = t.sp
	n.current = t
	n.runSegment()
}

// runSegment starts (or resumes) the head segment of the current task.
func (n *Node) runSegment() {
	t := n.current
	for len(t.segs) > 0 && t.head().rem <= 0 {
		t.pop()
	}
	if len(t.segs) == 0 {
		n.finish(t)
		return
	}
	h := t.head()
	n.account(h.cat)
	n.curStart = n.k.Now()
	if n.segDone == nil {
		n.segDone = n.segmentDone
	}
	n.curTimer = n.k.After(h.rem, n.segDone)
}

// segmentDone ends the current task's head segment when its timer
// fires. n.current is still the task, with the head segment, that the
// timer was armed for: the only paths that replace the task or change
// its head while it runs, stopCurrent and Crash, stop curTimer first.
func (n *Node) segmentDone() {
	if n.crashed {
		return
	}
	t := n.current
	h := t.head()
	t.charge(h.cat, h.rem)
	t.pop()
	if len(t.segs) > 0 {
		n.runSegment()
		return
	}
	n.finish(t)
}

// finish completes the current task: wake its subprocess and run the
// next one.
func (n *Node) finish(t *task) {
	n.current = nil
	n.account(n.idleCategory())
	t.sp.proc.Wake(t.tok)
	n.schedule()
}

// Interrupt delivers an interrupt to the node: the CPU preempts
// whatever is running, spends the interrupt entry cost plus extra in
// system mode, then calls fn (still at interrupt level — fn must not
// block) and resumes the preempted work without a full context switch.
// Safe to call from any simulation context.
func (n *Node) Interrupt(extra sim.Duration, fn func()) {
	if n.crashed {
		return // a dead CPU takes no interrupts
	}
	n.intrQ = append(n.intrQ, intrWork{d: n.costs.InterruptEntry + extra, fn: fn})
	n.Interrupts++
	if n.inIntr {
		return // will be drained by the active interrupt loop
	}
	if n.current != nil {
		n.suspended = n.stopCurrent()
	}
	n.inIntr = true
	n.account(CatSystem)
	n.runInterrupts()
}

// runInterrupts drains the interrupt queue, then resumes the suspended
// task (no context-switch charge: the interrupt overhead covers the
// partial save/restore) unless a higher-priority task became ready.
func (n *Node) runInterrupts() {
	if n.crashed {
		return
	}
	if n.intrHead == len(n.intrQ) {
		n.inIntr = false
		n.account(n.idleCategory())
		if n.suspended != nil {
			s := n.suspended
			n.suspended = nil
			if n.ready.Len() > 0 && n.ready[0].prio > s.prio {
				heap.Push(&n.ready, s)
			} else {
				n.current = s
				n.runSegment()
				return
			}
		}
		n.schedule()
		return
	}
	w := n.intrQ[n.intrHead]
	n.intrQ[n.intrHead] = intrWork{}
	n.intrHead++
	if n.intrHead == len(n.intrQ) {
		// Drained: rewind so the next interrupt reuses the capacity.
		n.intrQ = n.intrQ[:0]
		n.intrHead = 0
	}
	n.k.After(w.d, n.newIntrDone(w.fn).fire)
}
