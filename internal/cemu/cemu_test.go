package cemu_test

import (
	"testing"
	"testing/quick"

	"hpcvorx/internal/cemu"
	"hpcvorx/internal/core"
)

// ringOscillator builds the classic n-inverter ring (n odd for
// oscillation).
func ringOscillator(n int) *cemu.Circuit {
	c := &cemu.Circuit{Signals: n}
	for i := 0; i < n; i++ {
		c.Gates = append(c.Gates, cemu.Gate{Kind: cemu.Not, In: []int{(i + n - 1) % n}, Out: i})
	}
	return c
}

func TestRingOscillatorOscillates(t *testing.T) {
	c := ringOscillator(3)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	state := make([]bool, 3)
	traj := c.Simulate(state, 12)
	// A 3-inverter ring with all-zero start has period 6.
	same := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(traj[0], traj[6]) || !same(traj[1], traj[7]) {
		t.Fatalf("ring not periodic: %v", traj)
	}
	if same(traj[0], traj[3]) {
		t.Fatalf("ring stuck: %v", traj)
	}
}

func TestAdderComputesCorrectSums(t *testing.T) {
	const n = 4
	c, pins := cemu.RippleAdder(n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Settle time: the carry chain is ~3n gate delays deep.
	const settle = 3*n + 2
	for a := 0; a < 16; a += 3 {
		for b := 0; b < 16; b += 5 {
			state := make([]bool, c.Signals)
			for i := 0; i < n; i++ {
				state[pins.A[i]] = a&(1<<i) != 0
				state[pins.B[i]] = b&(1<<i) != 0
			}
			traj := c.Simulate(state, settle)
			final := traj[len(traj)-1]
			got := 0
			for i := 0; i < n; i++ {
				if final[pins.Sum[i]] {
					got |= 1 << i
				}
			}
			if final[pins.Cout] {
				got |= 1 << n
			}
			if got != a+b {
				t.Fatalf("%d+%d = %d, circuit says %d", a, b, a+b, got)
			}
		}
	}
}

func TestValidateCatchesBadNetlists(t *testing.T) {
	bad := &cemu.Circuit{Signals: 2, Gates: []cemu.Gate{
		{Kind: cemu.Not, In: []int{0}, Out: 1},
		{Kind: cemu.Not, In: []int{0}, Out: 1}, // double driver
	}}
	if bad.Validate() == nil {
		t.Fatal("double driver accepted")
	}
	bad2 := &cemu.Circuit{Signals: 1, Gates: []cemu.Gate{{Kind: cemu.Not, In: []int{5}, Out: 0}}}
	if bad2.Validate() == nil {
		t.Fatal("bad input index accepted")
	}
	bad3 := &cemu.Circuit{Signals: 2, Gates: []cemu.Gate{{Kind: cemu.Not, In: []int{0, 1}, Out: 1}}}
	if bad3.Validate() == nil {
		t.Fatal("2-input NOT accepted")
	}
}

// runDistributed compares the distributed simulation against the
// sequential reference.
func runDistributed(t *testing.T, c *cemu.Circuit, initial []bool, steps, procs, window int) *cemu.Result {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: procs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cemu.Run(sys, c, initial, steps, procs, window)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Simulate(initial, steps)
	final := want[len(want)-1]
	for i := range final {
		if res.Final[i] != final[i] {
			t.Fatalf("signal %d: distributed %v, reference %v (procs=%d window=%d)",
				i, res.Final[i], final[i], procs, window)
		}
	}
	return res
}

func TestDistributedMatchesReferenceRing(t *testing.T) {
	c := ringOscillator(9)
	runDistributed(t, c, make([]bool, 9), 10, 3, 2)
}

func TestDistributedMatchesReferenceAdder(t *testing.T) {
	c, pins := cemu.RippleAdder(4)
	state := make([]bool, c.Signals)
	state[pins.A[0]] = true
	state[pins.A[2]] = true
	state[pins.B[1]] = true
	state[pins.B[3]] = true
	runDistributed(t, c, state, 14, 4, 4)
}

// Property: for random circuits, partitions, and windows, the
// distributed simulation is bit-identical to the reference.
func TestDistributedEquivalenceProperty(t *testing.T) {
	f := func(seed int64, gatesRaw, procsRaw, windowRaw, stepsRaw uint8) bool {
		gates := int(gatesRaw%30) + 4
		procs := int(procsRaw%4) + 1
		window := int(windowRaw%4) + 1
		steps := int(stepsRaw%6) + 1
		c := cemu.RandomCircuit(4, gates, seed)
		initial := make([]bool, c.Signals)
		for i := range initial {
			initial[i] = (seed>>uint(i%60))&1 == 1
		}
		sys, err := core.Build(core.Config{Nodes: procs, Seed: 1})
		if err != nil {
			return false
		}
		res, err := cemu.Run(sys, c, initial, steps, procs, window)
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		want := c.Simulate(initial, steps)
		final := want[len(want)-1]
		for i := range final {
			if res.Final[i] != final[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLockstepIsWindowInsensitive(t *testing.T) {
	// Instructive contrast with Table 1: under the simulator's
	// lockstep exchange each pair carries exactly one message per
	// step, so credits are always replenished before the next send
	// and the buffer count barely matters. The window pays off for
	// *streaming* traffic (Table 1's benchmark), not for synchronous
	// neighbor exchange.
	c := cemu.RandomCircuit(6, 48, 3)
	initial := make([]bool, c.Signals)
	r1 := runDistributed(t, c, initial, 12, 4, 1)
	r4 := runDistributed(t, c, initial, 12, 4, 4)
	lo, hi := float64(r1.Elapsed)*0.9, float64(r1.Elapsed)*1.15
	if f := float64(r4.Elapsed); f < lo || f > hi {
		t.Fatalf("window 4 (%v) differs wildly from window 1 (%v)", r4.Elapsed, r1.Elapsed)
	}
	if r1.PairMessages != r4.PairMessages {
		t.Fatalf("message counts differ: %d vs %d", r1.PairMessages, r4.PairMessages)
	}
}

func TestSingleProcNoMessages(t *testing.T) {
	c := ringOscillator(5)
	res := runDistributed(t, c, make([]bool, 5), 8, 1, 2)
	if res.PairMessages != 0 {
		t.Fatalf("single-proc run exchanged %d messages", res.PairMessages)
	}
}

func TestRunValidation(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := ringOscillator(3)
	if _, err := cemu.Run(sys, c, make([]bool, 2), 1, 1, 1); err == nil {
		t.Fatal("bad initial length accepted")
	}
	if _, err := cemu.Run(sys, c, make([]bool, 3), 1, 5, 1); err == nil {
		t.Fatal("too many procs accepted")
	}
}
