package vorxbench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vchan"
	"hpcvorx/internal/verify"
)

// The rebalance storm drives seeded schedules of forced placement
// changes — interleaved with partitions, gray brokers, and broker
// crashes — through the channel-virtualization layer with the full
// invariant checker attached. `vorx chaos -sweep N` runs this sweep
// alongside the classic one, so the CI gate covers live migration
// under the same faults the channel layer already survives.

// Storm geometry: same 1 host + 15 nodes hypercube as the classic
// sweep (4 clusters of 4). Lanes live on node13 and node14 (cluster
// 3); the balancer rides host0 (cluster 0); tenants span clusters 0-2.
const (
	stormNodes   = 15
	stormTenants = 4
	stormMsgs    = 12
	stormPace    = 300 * sim.Microsecond
	stormBrokerA = 13
	stormBrokerB = 14
)

// StormSchedule derives a rebalance-storm schedule from seed: always
// 2-4 forced migrations, usually a partition (cut from clusters 1-2,
// so the balancer and its lane nodes stay mutually reachable and
// every rebalance stays valid mid-cut), often a gray broker, half the
// time a broker crash/restart — in which case every rebalance targets
// the surviving broker, piling the whole storm onto one node. The
// text goes through ParseSchedule like a user file, so the sweep also
// exercises the DSL's whole-schedule validation.
func StormSchedule(seed int64) string {
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

	// Broker crash/restart, half the time. The restart lands after
	// the balancer's silence window (5 x 500us reports), so the sweep
	// covers both quick blips and full evacuations.
	crashed := -1
	if rng.Intn(2) == 1 {
		crashed = []int{stormBrokerA, stormBrokerB}[rng.Intn(2)]
		cAt := at(1200 + rng.Intn(2001))
		rAt := at(cAt + 1500 + rng.Intn(4001))
		lines = append(lines,
			fmt.Sprintf("%dus crash node%d", cAt, crashed),
			fmt.Sprintf("%dus restart node%d", rAt, crashed))
	}

	// The storm itself: 2-4 forced migrations over the run. Targets
	// alternate between the lane nodes unless one is scheduled to
	// crash, in which case the survivor takes everything.
	nReb := 2 + rng.Intn(3)
	for i := 0; i < nReb; i++ {
		tenant := rng.Intn(stormTenants)
		target := []int{stormBrokerA, stormBrokerB}[rng.Intn(2)]
		if crashed >= 0 {
			target = stormBrokerA + stormBrokerB - crashed
		}
		lines = append(lines,
			fmt.Sprintf("%dus rebalance t%d node%d", at(500+rng.Intn(5501)), tenant, target))
	}

	// Partition: cut 1-2 of clusters {1,2} from the rest. Producers
	// and consumers live there, so frames and acks stall mid-cut and
	// the drain/replay machinery has to ride it out.
	if rng.Float64() < 0.8 {
		pStart := at(1800 + rng.Intn(1201))
		pDur := 1000 + rng.Intn(3001)
		minority := []string{"1", "2", "1,2"}[rng.Intn(3)]
		lines = append(lines,
			fmt.Sprintf("%dus partition %s", pStart, minority),
			fmt.Sprintf("%dus heal", at(pStart+pDur)))
	}

	// Gray degradation on a lane node, sometimes: slow, lossy
	// forwarding without ever going silent.
	if rng.Float64() < 0.5 {
		g := []int{stormBrokerA, stormBrokerB}[rng.Intn(2)]
		gStart := at(1500 + rng.Intn(1501))
		gDur := 1500 + rng.Intn(2501)
		slow := []float64{2, 4}[rng.Intn(2)]
		drop := []float64{0, 0.15, 0.3}[rng.Intn(3)]
		lines = append(lines,
			fmt.Sprintf("%dus gray node%d %g %g", gStart, g, slow, drop),
			fmt.Sprintf("%dus ungray node%d", at(gStart+gDur), g))
	}
	return strings.Join(lines, "\n") + "\n"
}

// StormRun is one seeded storm's outcome.
type StormRun struct {
	Seed       int64
	Delivered  int // messages read across all tenants
	Expected   int // tenants * msgs
	Migrations int // placements the balancer moved (forced + evacuations)
	Stale      int // stale-term frames structurally refused
	Dups       int // duplicate frames the consumers absorbed
	Violations []verify.Violation
}

// StormVerifyRun replays StormSchedule(seed) against paced vchannel
// traffic with the invariant checker attached to both the channel
// layer and the virtualization layer. Deterministic: one seed, one
// outcome.
func StormVerifyRun(seed int64) StormRun {
	sched := StormSchedule(seed)
	ops, err := fault.ParseSchedule(strings.NewReader(sched))
	if err != nil {
		panic(fmt.Sprintf("vorxbench: generated storm schedule rejected (seed %d): %v", seed, err))
	}
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: stormNodes, Seed: 7})
	if err != nil {
		panic(err)
	}
	fab := vchan.Enable(sys, vchan.Config{Brokers: []int{stormBrokerA, stormBrokerB}})
	type tenant struct {
		name       string
		prod, cons *core.Machine
	}
	tenants := make([]tenant, stormTenants)
	for i := range tenants {
		tenants[i] = tenant{name: fmt.Sprintf("t%d", i), prod: sys.Node(i), cons: sys.Node(i + stormTenants)}
		fab.Declare(tenants[i].name, tenants[i].prod, tenants[i].cons)
	}
	chk := verify.AttachAll(sys, fab)
	fab.Start()

	eng := fault.New(sys.K, seed)
	eng.MaxRetries = 0
	eng.Bind(sys)
	eng.BindVChan(fab.Balancer())
	if err := eng.Apply(ops); err != nil {
		panic(fmt.Sprintf("vorxbench: storm schedule failed to apply (seed %d): %v", seed, err))
	}

	recv := make([]int, stormTenants)
	for i, tn := range tenants {
		i, tn := i, tn
		sys.Spawn(tn.prod, "w/"+tn.name, 1, func(sp *kern.Subprocess) {
			w := fab.On(tn.prod).OpenWriter(sp, tn.name)
			for k := 0; k < stormMsgs; k++ {
				if err := w.Write(sp, 128, k); err != nil {
					return
				}
				sp.SleepFor(stormPace)
			}
		})
		sys.Spawn(tn.cons, "r/"+tn.name, 1, func(sp *kern.Subprocess) {
			r := fab.On(tn.cons).OpenReader(sp, tn.name)
			for k := 0; k < stormMsgs; k++ {
				if _, err := r.Read(sp); err != nil {
					return
				}
				recv[i]++
			}
		})
	}
	// The balancer's beacons tick forever; run to a horizon that
	// comfortably covers every heal, restart, and ctrl retry.
	sys.RunFor(60 * sim.Millisecond)

	r := StormRun{Seed: seed, Expected: stormTenants * stormMsgs,
		Migrations: fab.Balancer().Migrations, Dups: chk.VDups, Violations: chk.Violations()}
	for _, n := range recv {
		r.Delivered += n
	}
	for _, m := range sys.Machines() {
		r.Stale += fab.On(m).StaleRefused
	}
	return r
}

// StormSweep aggregates StormVerifyRun over seeds start..start+n-1.
type StormSweep struct {
	Start      int64
	Seeds      int
	Full       int // runs that delivered every message
	Delivered  int
	Expected   int
	Migrations int
	Stale      int
	Dups       int
	Violations int
	BadSeeds   []int64 // seeds with at least one violation
}

// RunStormSweep runs n seeded rebalance storms and tallies the
// results.
func RunStormSweep(start int64, n int) StormSweep {
	s := StormSweep{Start: start, Seeds: n}
	for i := 0; i < n; i++ {
		r := StormVerifyRun(start + int64(i))
		s.Delivered += r.Delivered
		s.Expected += r.Expected
		s.Migrations += r.Migrations
		s.Stale += r.Stale
		s.Dups += r.Dups
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

// Format renders the storm-sweep summary.
func (s StormSweep) Format(w io.Writer) {
	fmt.Fprintf(w, "rebalance storm: %d seeded schedules (seeds %d..%d), %d tenants x %d messages over 2 lane nodes\n",
		s.Seeds, s.Start, s.Start+int64(s.Seeds)-1, stormTenants, stormMsgs)
	fmt.Fprintf(w, "  delivered %d/%d messages (%d runs complete), %d migrations, %d stale frames refused, %d dups absorbed\n",
		s.Delivered, s.Expected, s.Full, s.Migrations, s.Stale, s.Dups)
	if s.Violations == 0 {
		fmt.Fprintf(w, "  invariants: 0 violations\n")
		return
	}
	fmt.Fprintf(w, "  invariants: %d VIOLATIONS in seeds %v\n", s.Violations, s.BadSeeds)
}
