package sim

// Semaphore is a counting semaphore in virtual time. Waiters are
// served in FIFO order, which keeps simulations deterministic.
type Semaphore struct {
	name    string
	count   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(name string, count int) *Semaphore {
	return &Semaphore{name: name, count: count}
}

// Acquire decrements the semaphore, blocking p while the count is zero.
func (s *Semaphore) Acquire(p *Proc) {
	if s.count > 0 {
		s.count--
		return
	}
	s.waiters = append(s.waiters, p)
	p.park("semaphore ", s.name)
}

// Release increments the semaphore, waking the oldest waiter if any.
// A released token handed directly to a waiter does not pass through
// the count, so Release-then-Acquire pairs are fair.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.unpark()
		return
	}
	s.count++
}

// Cond is a condition-variable-like wait list: processes Wait on it,
// and any simulation context can Signal it to wake the oldest waiter.
// Unlike sync.Cond there is no associated lock — the simulation is
// single-threaded in virtual time.
type Cond struct {
	name    string
	waiters []*Proc
}

// NewCond returns an empty wait list.
func NewCond(name string) *Cond {
	return &Cond{name: name}
}

// Wait blocks p until Signal wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park("cond ", c.name)
}

// Signal wakes the oldest waiter, if any, and reports whether one was
// woken.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	w.unpark()
	return true
}
