//go:build go1.23

package kern

// Coroutines provide multiple threads of execution *within* one
// subprocess, as the CEMU circuit simulator did (paper §5). Switches
// happen only at well-defined places in the application code, so most
// registers need not be saved: a coroutine switch costs a small
// fraction of the 80 µs subprocess context switch.
//
// A CoroutineGroup belongs to one subprocess. The subprocess calls
// Run, which cycles through the coroutines round-robin; a coroutine
// runs until it Yields or returns. All CPU consumed by coroutine
// bodies is charged to the owning subprocess.
//
// Each coroutine is an iter.Pull coroutine, resumed by Run on the
// subprocess's own runner. A panic in a body, Shutdown's kill of a
// parked coroutine included, comes out of that resume and unwinds the
// subprocess body; Run then stops the coroutines still suspended in
// Yield, so none is left behind.

import (
	"errors"
	"iter"

	"hpcvorx/internal/sim"
)

// errStopped unwinds a coroutine that Run stops while it is suspended
// in Yield.
var errStopped = errors.New("kern: coroutine stopped")

// CoroutineGroup schedules coroutines inside one subprocess.
type CoroutineGroup struct {
	sp    *Subprocess
	coros []*Coroutine
}

// Coroutine is one cooperative thread within a subprocess.
type Coroutine struct {
	g     *CoroutineGroup
	body  func(c *Coroutine)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	done  bool
}

// NewCoroutineGroup creates an empty group owned by sp.
func NewCoroutineGroup(sp *Subprocess) *CoroutineGroup {
	return &CoroutineGroup{sp: sp}
}

// Add registers a coroutine; call before Run.
func (g *CoroutineGroup) Add(body func(c *Coroutine)) *Coroutine {
	c := &Coroutine{g: g, body: body}
	g.coros = append(g.coros, c)
	return c
}

// Run executes the group round-robin until every coroutine has
// returned. It must be called from the owning subprocess's body. Each
// handoff charges the coroutine-switch cost to the subprocess.
func (g *CoroutineGroup) Run() {
	for _, c := range g.coros {
		c.next, c.stop = iter.Pull(c.loop)
	}
	defer func() {
		for _, c := range g.coros {
			c.stop()
		}
	}()
	for {
		c := g.next()
		if c == nil {
			return
		}
		g.sp.System(g.sp.node.costs.CoroutineSwitch)
		if _, ok := c.next(); !ok {
			c.done = true
		}
	}
}

// loop is a coroutine's body. It recovers only the unwind of a stopped
// Yield, so any other panic, a kill's included, reaches Run.
func (c *Coroutine) loop(yield func(struct{}) bool) {
	c.yield = yield
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	c.body(c)
}

// next returns a not-yet-finished coroutine in round-robin order.
func (g *CoroutineGroup) next() *Coroutine {
	for i := 0; i < len(g.coros); i++ {
		c := g.coros[0]
		g.coros = append(g.coros[1:], c)
		if !c.done {
			return c
		}
	}
	return nil
}

// Compute consumes d of user CPU, delegated to the owning subprocess.
// Safe because exactly one thread of the group runs at a time.
func (c *Coroutine) Compute(d sim.Duration) {
	c.g.sp.Compute(d)
}

// Yield switches to the next runnable coroutine in the group. When Run
// stops the coroutine instead of resuming it, Yield unwinds its body.
func (c *Coroutine) Yield() {
	if !c.yield(struct{}{}) {
		panic(errStopped)
	}
}
