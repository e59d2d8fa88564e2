package kern

import (
	"fmt"

	"hpcvorx/internal/sim"
)

// Subprocess is a VORX thread of execution: independently scheduled,
// sharing its process's address space, with its own stack and an
// execution priority (paper §5). All methods must be called from the
// subprocess's own body function.
type Subprocess struct {
	node     *Node
	proc     *sim.Proc
	name     string
	prio     int
	waitKind WaitKind
	task     *task // CPU request record, CPU time and sleep state, from first use
}

// SpawnSubprocess starts a subprocess on the node at the given
// priority (higher runs first, preemptively).
func (n *Node) SpawnSubprocess(name string, prio int, body func(sp *Subprocess)) *Subprocess {
	sp := &Subprocess{node: n, name: name, prio: prio}
	sp.proc = n.k.Spawn(fmt.Sprintf("%s/%s", n.name, name), func(p *sim.Proc) {
		body(sp)
	})
	n.subs = append(n.subs, sp)
	return sp
}

// Node returns the node the subprocess runs on.
func (sp *Subprocess) Node() *Node { return sp.node }

// Proc returns the underlying simulation process.
func (sp *Subprocess) Proc() *sim.Proc { return sp.proc }

// Now returns the current virtual time.
func (sp *Subprocess) Now() sim.Time { return sp.node.k.Now() }

// Compute consumes d of CPU at the subprocess's priority as user time,
// preemptible by interrupts and higher-priority subprocesses.
func (sp *Subprocess) Compute(d sim.Duration) {
	if d <= 0 {
		return
	}
	sp.node.exec(sp, CatUser, d)
}

// System consumes d of CPU as system time (kernel work done on the
// subprocess's behalf).
func (sp *Subprocess) System(d sim.Duration) {
	if d <= 0 {
		return
	}
	sp.node.exec(sp, CatSystem, d)
}

// Syscall charges the supervisor-call overhead plus d of kernel work.
func (sp *Subprocess) Syscall(d sim.Duration) {
	sp.node.exec(sp, CatSystem, sp.node.costs.Syscall+d)
}

// Block arms the subprocess to wait until the returned Waker is woken
// (from any simulation context); BlockNow then waits. kind feeds the
// idle-time partition.
func (sp *Subprocess) Block(kind WaitKind) Waker {
	sp.waitKind = kind
	sp.node.refreshIdle()
	return Waker{sp: sp, tok: sp.proc.Arm()}
}

// Waker resumes one blocked subprocess: the wait one Block call
// armed. It is a value, so holding or passing one allocates nothing.
// The zero Waker wakes nothing.
type Waker struct {
	sp  *Subprocess
	tok sim.ParkToken
}

// Wake ends the wait. Only the first Wake of an armed wait resumes the
// subprocess; a repeated one resumes nothing, but like the first it
// marks the subprocess as not waiting in the idle accounting.
func (w Waker) Wake() {
	if w.sp == nil {
		return
	}
	w.sp.waitKind = WaitNone
	w.sp.node.refreshIdle()
	w.sp.proc.Wake(w.tok)
}

// Armed reports whether w holds a wait to end (it is not the zero
// Waker).
func (w Waker) Armed() bool { return w.sp != nil }

// BlockNow waits for the Waker that Block armed. what and name, joined,
// are the reason deadlock reports and cdb output show; they are given
// here, where the subprocess parks, so a wait nested between Block and
// BlockNow (for the CPU, or for room in an output section) cannot
// replace them. Pass name apart from what, so that nothing is joined
// unless the reason is read.
func (sp *Subprocess) BlockNow(what, name string) { sp.proc.Block(what, name) }

// SleepFor blocks the subprocess for d of virtual time (idle-other).
// Once the first sleep has bound the timer callback on the task
// record, a sleep allocates nothing.
func (sp *Subprocess) SleepFor(d sim.Duration) {
	t := sp.record()
	if t.wakeSleep == nil {
		t.wakeSleep = func() { Waker{sp: sp, tok: t.tok}.Wake() }
	}
	t.tok = sp.Block(WaitOther).tok
	sp.node.k.After(d, t.wakeSleep)
	sp.BlockNow("sleep ", sp.name)
}

// Semaphore is a VORX counting semaphore: the communication mechanism
// between subprocesses of a process (paper §5). P and V charge the
// semaphore-operation cost to the calling subprocess.
type Semaphore struct {
	node    *Node
	name    string
	count   int
	waiters []Waker
}

// NewSemaphore creates a semaphore on the node with an initial count.
func (n *Node) NewSemaphore(name string, count int) *Semaphore {
	return &Semaphore{node: n, name: name, count: count}
}

// P decrements the semaphore, blocking the subprocess while zero.
func (s *Semaphore) P(sp *Subprocess) {
	sp.System(s.node.costs.SemOp)
	if s.count > 0 {
		s.count--
		return
	}
	wake := sp.Block(WaitOther)
	s.waiters = append(s.waiters, wake)
	sp.BlockNow("sem ", s.name)
}

// V increments the semaphore, waking the oldest waiter.
func (s *Semaphore) V(sp *Subprocess) {
	sp.System(s.node.costs.SemOp)
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.Wake()
		return
	}
	s.count++
}
