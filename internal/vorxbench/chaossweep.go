package vorxbench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/verify"
)

// The chaos sweep drives many seeded fault schedules through one
// installation shape and checks the communication invariants (verify
// package) after every run. `vorx chaos -sweep N` and the CI sweep
// both call into this file, so the coverage the gate enforces is the
// coverage a developer can reproduce locally with one command.

// Sweep geometry: 1 host + 15 nodes is the smallest build that yields
// a multi-cluster hypercube (4 clusters of 4), which partitions need.
const (
	sweepNodes = 15
	sweepPairs = 7
	sweepMsgs  = 10
	sweepPace  = 350 * sim.Microsecond
)

// ChaosSchedule derives a fault schedule from seed: always one
// partition (1-2 minority clusters) with its heal, usually a gray
// node, often a crash/restart. The text goes through ParseSchedule
// like a user-supplied file, so the sweep also exercises the DSL.
func ChaosSchedule(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var lines []string
	used := map[int]bool{}
	at := func(t int) int {
		for used[t] {
			t++
		}
		used[t] = true
		return t
	}

	// Partition: cut 1-2 of the non-host clusters from the rest.
	pStart := at(1800 + rng.Intn(1201))
	pDur := 1000 + rng.Intn(3001)
	perm := rng.Perm(3)
	minority := []int{perm[0] + 1}
	if rng.Intn(2) == 1 {
		minority = append(minority, perm[1]+1)
		sort.Ints(minority)
	}
	spec := make([]string, len(minority))
	for i, c := range minority {
		spec[i] = fmt.Sprint(c)
	}
	lines = append(lines,
		fmt.Sprintf("%dus partition %s", pStart, strings.Join(spec, ",")),
		fmt.Sprintf("%dus heal", at(pStart+pDur)))

	// Gray degradation on one node, usually.
	if rng.Float64() < 0.7 {
		g := rng.Intn(sweepNodes)
		slow := []float64{2, 4, 8}[rng.Intn(3)]
		drop := []float64{0, 0.15, 0.35}[rng.Intn(3)]
		gStart := at(1500 + rng.Intn(1501))
		gDur := 1500 + rng.Intn(2501)
		lines = append(lines,
			fmt.Sprintf("%dus gray node%d %g %g", gStart, g, slow, drop),
			fmt.Sprintf("%dus ungray node%d", at(gStart+gDur), g))
	}

	// Crash/restart on one node, half the time. The restart lands
	// strictly after the oracle's 2ms detect delay: a node that comes
	// back before anyone noticed keeps its channels open, but its
	// killed subprocesses do not come back — that needs a supervisor
	// (internal/super), which the sweep deliberately runs without.
	if rng.Intn(2) == 1 {
		c := rng.Intn(sweepNodes)
		cAt := at(1500 + rng.Intn(2001))
		rAt := at(cAt + 2100 + rng.Intn(2901))
		lines = append(lines,
			fmt.Sprintf("%dus crash node%d", cAt, c),
			fmt.Sprintf("%dus restart node%d", rAt, c))
	}
	return strings.Join(lines, "\n") + "\n"
}

// ChaosRun is one seeded run's outcome.
type ChaosRun struct {
	Seed       int64
	Delivered  int // messages read across all pairs
	Expected   int // pairs * msgs
	Dups       int // duplicate data frames the channel layer absorbed
	Retrans    int // timeout retransmits
	Violations []verify.Violation
}

// ChaosVerifyRun replays ChaosSchedule(seed) against paced channel
// traffic with the invariant checker attached. Deterministic: one
// seed, one outcome.
func ChaosVerifyRun(seed int64) ChaosRun {
	sched := ChaosSchedule(seed)
	ops, err := fault.ParseSchedule(strings.NewReader(sched))
	if err != nil {
		panic(fmt.Sprintf("vorxbench: generated schedule rejected (seed %d): %v", seed, err))
	}
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: sweepNodes, Seed: 7})
	if err != nil {
		panic(err)
	}
	chk := verify.Attach(sys)
	eng := fault.New(sys.K, seed)
	eng.MaxRetries = 0 // partitions heal: retry forever rather than give up mid-cut
	eng.Bind(sys)
	if err := eng.Apply(ops); err != nil {
		panic(fmt.Sprintf("vorxbench: schedule failed to apply (seed %d): %v", seed, err))
	}

	recv := make([]int, sweepPairs)
	for pi := 0; pi < sweepPairs; pi++ {
		pi := pi
		name := fmt.Sprintf("sweep%d", pi)
		wm, rm := sys.Node(pi), sys.Node(pi+sweepPairs)
		sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < sweepMsgs; i++ {
				if err := ch.Write(sp, 256, fmt.Sprintf("s%d.%d", pi, i)); err != nil {
					return
				}
				sp.SleepFor(sweepPace)
			}
		})
		sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < sweepMsgs; i++ {
				if _, ok := ch.Read(sp); !ok {
					return
				}
				recv[pi]++
			}
		})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	r := ChaosRun{Seed: seed, Expected: sweepPairs * sweepMsgs,
		Dups: chk.Dups, Violations: chk.Violations()}
	for _, n := range recv {
		r.Delivered += n
	}
	for _, m := range sys.Machines() {
		r.Retrans += m.Chans.TimeoutRetransmits
	}
	return r
}

// ChaosSweep aggregates ChaosVerifyRun over seeds start..start+n-1.
type ChaosSweep struct {
	Start      int64
	Seeds      int
	Full       int // runs that delivered every message
	Delivered  int
	Expected   int
	Dups       int
	Retrans    int
	Violations int
	BadSeeds   []int64 // seeds with at least one violation
}

// RunChaosSweep runs n seeded schedules and tallies the results.
func RunChaosSweep(start int64, n int) ChaosSweep {
	s := ChaosSweep{Start: start, Seeds: n}
	for i := 0; i < n; i++ {
		r := ChaosVerifyRun(start + int64(i))
		s.Delivered += r.Delivered
		s.Expected += r.Expected
		s.Dups += r.Dups
		s.Retrans += r.Retrans
		if r.Delivered == r.Expected {
			s.Full++
		}
		if len(r.Violations) > 0 {
			s.Violations += len(r.Violations)
			s.BadSeeds = append(s.BadSeeds, r.Seed)
		}
	}
	return s
}

// Format renders the sweep summary.
func (s ChaosSweep) Format(w io.Writer) {
	fmt.Fprintf(w, "chaos sweep: %d seeded schedules (seeds %d..%d) on 1 host + %d nodes, %d pairs x %d messages\n",
		s.Seeds, s.Start, s.Start+int64(s.Seeds)-1, sweepNodes, sweepPairs, sweepMsgs)
	fmt.Fprintf(w, "  delivered %d/%d messages (%d runs complete), %d dup frames absorbed, %d retransmits\n",
		s.Delivered, s.Expected, s.Full, s.Dups, s.Retrans)
	if s.Violations == 0 {
		fmt.Fprintf(w, "  invariants: 0 violations\n")
		return
	}
	fmt.Fprintf(w, "  invariants: %d VIOLATIONS in seeds %v\n", s.Violations, s.BadSeeds)
}
