package cemu

import (
	"fmt"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/udo"
)

// GateEvalCost is the 68020+68882 time to evaluate one gate's timing
// model per step.
const GateEvalCost = 25 * sim.Microsecond

// CoroutineChunk is the number of gates one coroutine evaluates — the
// CEMU structuring of §5: many model-evaluation threads inside one
// subprocess, switched cooperatively.
const CoroutineChunk = 8

// Result reports a distributed simulation run.
type Result struct {
	Steps   int
	Window  int
	Elapsed sim.Duration
	// PairMessages counts boundary-update messages exchanged.
	PairMessages int
	// Final is the final signal state.
	Final []bool
}

// update carries one step's boundary signal values from one node to
// another.
type update struct {
	step int
	vals []bool
}

// Run simulates the circuit for `steps` unit-delay steps on P
// processing nodes, with gates partitioned contiguously. Boundary
// values are exchanged every step over sliding-window user-defined
// objects with k buffers (the Table 1 protocol, in its natural
// habitat); gate evaluation inside each node runs on coroutines.
func Run(sys *core.System, c *Circuit, initial []bool, steps, procs, window int) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != c.Signals {
		return nil, fmt.Errorf("cemu: initial state has %d signals, circuit %d", len(initial), c.Signals)
	}
	if procs < 1 || procs > len(sys.Nodes()) {
		return nil, fmt.Errorf("cemu: need 1..%d procs, got %d", len(sys.Nodes()), procs)
	}
	if window < 1 {
		window = 1
	}

	// Partition gates contiguously; owner[sig] = node driving it.
	gatesOf := make([][]Gate, procs)
	owner := make([]int, c.Signals)
	for i := range owner {
		owner[i] = -1 // primary input: constant, known everywhere
	}
	per := (len(c.Gates) + procs - 1) / procs
	for gi, g := range c.Gates {
		p := gi / per
		if p >= procs {
			p = procs - 1
		}
		gatesOf[p] = append(gatesOf[p], g)
		owner[g.Out] = p
	}

	// needs[p][q] lists signals driven by q that p's gates read.
	needs := make([][][]int, procs)
	for p := 0; p < procs; p++ {
		needs[p] = make([][]int, procs)
		seen := map[int]bool{}
		for _, g := range gatesOf[p] {
			for _, in := range g.In {
				q := owner[in]
				if q >= 0 && q != p && !seen[in] {
					seen[in] = true
					needs[p][q] = append(needs[p][q], in)
				}
			}
		}
	}

	// Sliding-window links for every directed pair with traffic.
	type pairIO struct {
		tx   *udo.WindowSender
		rx   *udo.WindowReceiver
		sigs []int // signals carried q -> p
	}
	links := make([][]*pairIO, procs) // links[p][q]: p receives q's values
	res := &Result{Steps: steps, Window: window, Final: make([]bool, c.Signals)}
	for p := 0; p < procs; p++ {
		links[p] = make([]*pairIO, procs)
		for q := 0; q < procs; q++ {
			sigs := needs[p][q]
			if len(sigs) == 0 {
				continue
			}
			name := fmt.Sprintf("cemu.%d.%d", q, p)
			size := 4 + len(sigs) // one byte per signal value
			links[p][q] = &pairIO{
				rx:   udo.NewWindowReceiver(sys.Node(p).IF, name, sys.Node(q).EP, size, window),
				tx:   udo.NewWindowSender(sys.Node(q).IF, name, sys.Node(p).EP, size),
				sigs: sigs,
			}
		}
	}

	start := sys.K.Now()
	var finish sim.Time
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		p := p
		sys.Spawn(sys.Node(p), fmt.Sprintf("cemu%d", p), 0, func(sp *kern.Subprocess) {
			// Local full-state copy; foreign values refreshed per step.
			state := append([]bool(nil), initial...)
			next := append([]bool(nil), initial...)

			// Prime the window credits.
			for q := 0; q < procs; q++ {
				if links[p][q] != nil {
					links[p][q].rx.Start(sp)
				}
			}
			sp.SleepFor(sim.Milliseconds(1)) // let credits land

			for s := 0; s < steps; s++ {
				// Evaluate this node's gates on coroutines, CEMU
				// style: one cooperative thread per chunk of gates.
				g := kern.NewCoroutineGroup(sp)
				for lo := 0; lo < len(gatesOf[p]); lo += CoroutineChunk {
					hi := lo + CoroutineChunk
					if hi > len(gatesOf[p]) {
						hi = len(gatesOf[p])
					}
					chunk := gatesOf[p][lo:hi]
					g.Add(func(co *kern.Coroutine) {
						vals := make([]bool, 0, 8)
						for _, gate := range chunk {
							co.Compute(GateEvalCost)
							vals = vals[:0]
							for _, in := range gate.In {
								vals = append(vals, state[in])
							}
							next[gate.Out] = gate.Kind.eval(vals)
							co.Yield()
						}
					})
				}
				g.Run()

				// Send my boundary values for this step to everyone
				// who needs them.
				for q := 0; q < procs; q++ {
					if q == p || links[q] == nil || links[q][p] == nil {
						continue
					}
					io := links[q][p]
					vals := make([]bool, len(io.sigs))
					for i, sig := range io.sigs {
						vals[i] = next[sig]
					}
					io.tx.Send(sp, update{step: s, vals: vals})
				}
				// Receive everyone else's boundary values.
				for q := 0; q < procs; q++ {
					if links[p][q] == nil {
						continue
					}
					io := links[p][q]
					m := io.rx.Recv(sp)
					u := m.Payload.(update)
					if u.step != s {
						errs[p] = fmt.Errorf("cemu: node %d got step %d update at step %d", p, u.step, s)
						return
					}
					for i, sig := range io.sigs {
						next[sig] = u.vals[i]
					}
				}
				state, next = next, state
				copy(next, state)
			}
			// Publish my signals (and, from node 0, the primary
			// inputs, which never change).
			for _, g := range gatesOf[p] {
				res.Final[g.Out] = state[g.Out]
			}
			if p == 0 {
				for i, o := range owner {
					if o == -1 {
						res.Final[i] = state[i]
					}
				}
			}
			if sp.Now() > finish {
				finish = sp.Now()
			}
		})
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for p := 0; p < procs; p++ {
		for q := 0; q < procs; q++ {
			if links[p][q] != nil {
				res.PairMessages += links[p][q].rx.Received
			}
		}
	}
	res.Elapsed = finish.Sub(start)
	return res, nil
}
