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

import "hpcvorx/internal/sim"

// CoroutineGroup schedules coroutines inside one subprocess.
type CoroutineGroup struct {
	sp    *Subprocess
	coros []*Coroutine
	yield chan struct{}
}

// Coroutine is one cooperative thread within a subprocess.
type Coroutine struct {
	g      *CoroutineGroup
	body   func(c *Coroutine)
	resume chan struct{}
	done   bool
}

// NewCoroutineGroup creates an empty group owned by sp.
func NewCoroutineGroup(sp *Subprocess) *CoroutineGroup {
	return &CoroutineGroup{sp: sp, yield: make(chan struct{})}
}

// Add registers a coroutine; call before Run.
func (g *CoroutineGroup) Add(body func(c *Coroutine)) *Coroutine {
	c := &Coroutine{g: g, body: body, resume: make(chan struct{})}
	g.coros = append(g.coros, c)
	return c
}

// Run executes the group round-robin until every coroutine has
// returned. It must be called from the owning subprocess's body. Each
// handoff charges the coroutine-switch cost to the subprocess.
func (g *CoroutineGroup) Run() {
	for _, c := range g.coros {
		c := c
		go func() {
			<-c.resume
			c.body(c)
			c.done = true
			g.yield <- struct{}{}
		}()
	}
	for {
		c := g.next()
		if c == nil {
			return
		}
		g.sp.System(g.sp.node.costs.CoroutineSwitch)
		c.resume <- struct{}{}
		<-g.yield
	}
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

// Yield switches to the next runnable coroutine in the group.
func (c *Coroutine) Yield() {
	c.g.yield <- struct{}{}
	<-c.resume
}
