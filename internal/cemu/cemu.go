// Package cemu is the circuit-simulation workload the paper keeps
// returning to: the CEMU group ran "MOS Timing Simulation on a
// Message Based Multiprocessor" (Ackland et al. 1986) on Meglos,
// wanted to experiment with low-level protocols (§4.1 — their
// experiments motivated the sliding-window benchmark of Table 1), and
// structured their node programs with coroutines because context
// switches were too slow (§5).
//
// This package implements a distributed gate-level timing simulator
// in that mold: a combinational/sequential netlist of unit-delay
// gates is partitioned across processing nodes; each simulated time
// step, every node evaluates its gates with a coroutine per gate
// group and exchanges boundary signal changes with the other nodes
// over sliding-window user-defined objects. Results are verified
// against a sequential reference evaluation.
package cemu

import (
	"fmt"
	"math/rand"
)

// GateKind is a logic gate type.
type GateKind int

// Gate kinds.
const (
	Not GateKind = iota
	And
	Or
	Nand
	Nor
	Xor
)

func (k GateKind) String() string {
	switch k {
	case Not:
		return "not"
	case And:
		return "and"
	case Or:
		return "or"
	case Nand:
		return "nand"
	case Nor:
		return "nor"
	case Xor:
		return "xor"
	}
	return fmt.Sprintf("GateKind(%d)", int(k))
}

// eval computes the gate's output from its input values.
func (k GateKind) eval(in []bool) bool {
	switch k {
	case Not:
		return !in[0]
	case And:
		for _, v := range in {
			if !v {
				return false
			}
		}
		return true
	case Or:
		for _, v := range in {
			if v {
				return true
			}
		}
		return false
	case Nand:
		return !And.eval(in)
	case Nor:
		return !Or.eval(in)
	case Xor:
		out := false
		for _, v := range in {
			out = out != v
		}
		return out
	}
	panic("cemu: unknown gate kind")
}

// Gate is one unit-delay gate: its output signal updates one step
// after its inputs change.
type Gate struct {
	Kind GateKind
	// In lists the signal indices feeding the gate.
	In []int
	// Out is the signal index the gate drives.
	Out int
}

// Circuit is a netlist over a dense signal space. Signals not driven
// by any gate are primary inputs.
type Circuit struct {
	Signals int
	Gates   []Gate
}

// Validate checks indices and single-driver rules.
func (c *Circuit) Validate() error {
	driver := make([]int, c.Signals)
	for i := range driver {
		driver[i] = -1
	}
	for gi, g := range c.Gates {
		if g.Out < 0 || g.Out >= c.Signals {
			return fmt.Errorf("cemu: gate %d drives bad signal %d", gi, g.Out)
		}
		if driver[g.Out] != -1 {
			return fmt.Errorf("cemu: signal %d driven by gates %d and %d", g.Out, driver[g.Out], gi)
		}
		driver[g.Out] = gi
		if len(g.In) == 0 {
			return fmt.Errorf("cemu: gate %d has no inputs", gi)
		}
		if g.Kind == Not && len(g.In) != 1 {
			return fmt.Errorf("cemu: gate %d: NOT takes one input", gi)
		}
		for _, in := range g.In {
			if in < 0 || in >= c.Signals {
				return fmt.Errorf("cemu: gate %d reads bad signal %d", gi, in)
			}
		}
	}
	return nil
}

// Step advances the circuit one unit-delay step sequentially: every
// gate output takes the value computed from the *previous* state —
// the reference semantics the distributed simulator must match.
func (c *Circuit) Step(state []bool) []bool {
	next := make([]bool, len(state))
	copy(next, state)
	vals := make([]bool, 8)
	for _, g := range c.Gates {
		vals = vals[:0]
		for _, in := range g.In {
			vals = append(vals, state[in])
		}
		next[g.Out] = g.Kind.eval(vals)
	}
	return next
}

// Simulate runs `steps` reference steps from the initial state and
// returns the trajectory (including the initial state).
func (c *Circuit) Simulate(initial []bool, steps int) [][]bool {
	traj := [][]bool{append([]bool(nil), initial...)}
	cur := append([]bool(nil), initial...)
	for s := 0; s < steps; s++ {
		cur = c.Step(cur)
		traj = append(traj, append([]bool(nil), cur...))
	}
	return traj
}

// RippleAdder builds an n-bit ripple-carry adder: inputs a0..an-1,
// b0..bn-1, cin; outputs sum bits and carry chain (as internal
// signals). Returns the circuit plus the signal indices of interest.
type AdderPins struct {
	A, B []int
	Cin  int
	Sum  []int
	Cout int
}

// RippleAdder constructs the adder netlist.
func RippleAdder(n int) (*Circuit, AdderPins) {
	c := &Circuit{}
	alloc := func() int {
		c.Signals++
		return c.Signals - 1
	}
	pins := AdderPins{Cin: -1}
	for i := 0; i < n; i++ {
		pins.A = append(pins.A, alloc())
	}
	for i := 0; i < n; i++ {
		pins.B = append(pins.B, alloc())
	}
	pins.Cin = alloc()
	carry := pins.Cin
	for i := 0; i < n; i++ {
		axb := alloc()
		c.Gates = append(c.Gates, Gate{Kind: Xor, In: []int{pins.A[i], pins.B[i]}, Out: axb})
		sum := alloc()
		c.Gates = append(c.Gates, Gate{Kind: Xor, In: []int{axb, carry}, Out: sum})
		pins.Sum = append(pins.Sum, sum)
		and1 := alloc()
		c.Gates = append(c.Gates, Gate{Kind: And, In: []int{axb, carry}, Out: and1})
		and2 := alloc()
		c.Gates = append(c.Gates, Gate{Kind: And, In: []int{pins.A[i], pins.B[i]}, Out: and2})
		cout := alloc()
		c.Gates = append(c.Gates, Gate{Kind: Or, In: []int{and1, and2}, Out: cout})
		carry = cout
	}
	pins.Cout = carry
	return c, pins
}

// RandomCircuit builds a deterministic pseudo-random DAG-free netlist
// of nGates gates over nInputs primary inputs (feedback allowed, as
// in sequential logic; unit delays make it well defined).
func RandomCircuit(nInputs, nGates int, seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := &Circuit{Signals: nInputs + nGates}
	kinds := []GateKind{Not, And, Or, Nand, Nor, Xor}
	for g := 0; g < nGates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		nin := 1
		if kind != Not {
			nin = 2 + rng.Intn(2)
		}
		in := make([]int, nin)
		for i := range in {
			in[i] = rng.Intn(c.Signals)
		}
		c.Gates = append(c.Gates, Gate{Kind: kind, In: in, Out: nInputs + g})
	}
	return c
}
