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
	task     *task // CPU request record and CPU time, from the first exec
}

// CPUTime returns the user and system CPU the subprocess has consumed
// (system time includes context switches performed on its behalf).
func (sp *Subprocess) CPUTime() (user, system sim.Duration) {
	if sp.task == nil {
		return 0, 0
	}
	return sp.task.user, sp.task.system
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

// Name returns the subprocess name.
func (sp *Subprocess) Name() string { return sp.name }

// Node returns the node the subprocess runs on.
func (sp *Subprocess) Node() *Node { return sp.node }

// Priority returns the subprocess's scheduling priority.
func (sp *Subprocess) Priority() int { return sp.prio }

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

// Block suspends the subprocess until the returned wake function is
// called (from any simulation context). kind feeds the idle-time
// partition; reason appears in deadlock reports and cdb output.
func (sp *Subprocess) Block(kind WaitKind, reason string) (wake func()) {
	sp.waitKind = kind
	sp.node.refreshIdle()
	tok := sp.proc.Arm(reason)
	return func() {
		sp.waitKind = WaitNone
		sp.node.refreshIdle()
		sp.proc.Wake(tok)
	}
}

// BlockNow arms Block and immediately waits; use when the waker was
// registered beforehand.
func (sp *Subprocess) BlockNow() { sp.proc.Block() }

// SleepFor blocks the subprocess for d of virtual time (idle-other).
func (sp *Subprocess) SleepFor(d sim.Duration) {
	sp.waitKind = WaitOther
	sp.node.refreshIdle()
	wake := sp.proc.Park("sleep " + sp.name)
	sp.node.k.After(d, func() {
		sp.waitKind = WaitNone
		sp.node.refreshIdle()
		wake()
	})
	sp.proc.Block()
}

// Yield lets equal-priority work run (cooperative reschedule).
func (sp *Subprocess) Yield() { sp.proc.Yield() }

// Semaphore is a VORX counting semaphore: the communication mechanism
// between subprocesses of a process (paper §5). P and V charge the
// semaphore-operation cost to the calling subprocess.
type Semaphore struct {
	node    *Node
	name    string
	count   int
	waiters []waiter
}

type waiter struct {
	sp   *Subprocess
	wake func()
}

// NewSemaphore creates a semaphore on the node with an initial count.
func (n *Node) NewSemaphore(name string, count int) *Semaphore {
	return &Semaphore{node: n, name: name, count: count}
}

// Value returns the semaphore's current count.
func (s *Semaphore) Value() int { return s.count }

// P decrements the semaphore, blocking the subprocess while zero.
func (s *Semaphore) P(sp *Subprocess) {
	sp.System(s.node.costs.SemOp)
	if s.count > 0 {
		s.count--
		return
	}
	wake := sp.Block(WaitOther, "sem "+s.name)
	s.waiters = append(s.waiters, waiter{sp: sp, wake: wake})
	sp.BlockNow()
}

// V increments the semaphore, waking the oldest waiter.
func (s *Semaphore) V(sp *Subprocess) {
	sp.System(s.node.costs.SemOp)
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.wake()
		return
	}
	s.count++
}

// VFromInterrupt increments the semaphore from interrupt level (no
// subprocess context, no charge — the interrupt already paid).
func (s *Semaphore) VFromInterrupt() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.wake()
		return
	}
	s.count++
}
