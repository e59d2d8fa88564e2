package vorxbench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"hpcvorx/internal/core"
	"hpcvorx/internal/sim"
)

// The shard sweep is the determinism gate for the parallel kernel:
// every seeded schedule runs once on a single shard and once split
// over four, and the two outcome digests must match byte-for-byte.
// Schedules stick to crash/restart and gray slowdowns — the faults a
// sharded build supports. Partitions and link faults need
// zero-lookahead rerouting and are rejected by the sharded fabric
// (SetCubeLinkDown panics), and gray frame-dropping draws on the fault
// engine's own random stream, which a split simulation does not share;
// neither belongs in a byte-identity check.

// shardLoad is E19's pair workload on the 15-node sweep pool.
var shardLoad = pairLoad{name: "shard%d", pairs: 7, msgs: 10, size: 192, sizeStep: 16,
	writerAt: 1, readerAt: 9, stagger: 17, pace: 310, paceStep: 7}

// ShardRun is one seeded schedule's outcome on one shard count.
type ShardRun struct {
	Seed      int64
	Shards    int
	Digest    string
	Delivered int
	Expected  int
	// CrossPosts counts kernel events posted across shard boundaries;
	// Handoffs counts fabric messages that crossed a boundary link.
	CrossPosts uint64
	Handoffs   int
}

// ShardChaosRun replays a seeded crash/gray schedule against paced
// cross-cluster channel traffic on a build split over the given shard
// count. Faults are armed directly on the victim machines' own shard
// kernels. Deterministic: one (seed, shards) pair, one digest.
func ShardChaosRun(seed int64, shards int) ShardRun {
	sh, err := core.BuildSharded(core.Config{Hosts: 1, Nodes: sweepNodes, Seed: 7, Shards: shards})
	if err != nil {
		panic(err)
	}
	// End-to-end recovery, same knobs the fault engine installs:
	// writes to a dead or reincarnated peer retransmit and then error
	// out instead of hanging.
	for _, m := range sh.Machines() {
		m.Chans.SetAckTimeout(5*sim.Millisecond, 3)
	}
	rng := rand.New(rand.NewSource(seed))

	// Crash/restart on one reader-side node, always: cross-shard
	// messages in flight toward the victim must be freed, and its
	// writer must ride out the outage on retransmits until the fenced
	// reincarnation declares the peer dead. (Writer-side nodes stay
	// up: with no fault-engine oracle and no supervisor, a reader
	// whose writer died would block forever.) Times are odd to stay
	// off the workload's pacing grid.
	victim := shardLoad.pairs + rng.Intn(sweepNodes-shardLoad.pairs)
	cAt := sim.Time(1501+2*rng.Intn(1000)) * sim.Time(sim.Microsecond)
	rAt := cAt + sim.Time(2101+2*rng.Intn(1450))*sim.Time(sim.Microsecond)
	vm := sh.Node(victim)
	vk := vm.Kern.Kernel()
	vk.At(cAt, func() { vm.Kern.Crash() })
	vk.At(rAt, func() { vm.Kern.Restart() })

	// Gray slowdown (no drops) on another node, usually.
	if rng.Float64() < 0.7 {
		g := rng.Intn(sweepNodes)
		if g == victim {
			g = (g + 1) % sweepNodes
		}
		slow := []float64{2, 4, 8}[rng.Intn(3)]
		gAt := sim.Time(1503+2*rng.Intn(1000)) * sim.Time(sim.Microsecond)
		gEnd := gAt + sim.Time(1501+2*rng.Intn(1250))*sim.Time(sim.Microsecond)
		gm := sh.Node(g)
		gk := gm.Kern.Kernel()
		gk.At(gAt, func() { gm.IF.SetGray(slow, nil) })
		gk.At(gEnd, func() { gm.IF.SetGray(0, nil) })
	}

	out := shardLoad.spawn(sh)
	if err := sh.Run(); err != nil {
		panic(fmt.Sprintf("vorxbench: shard run (seed %d, shards %d): %v", seed, shards, err))
	}

	r := ShardRun{Seed: seed, Shards: sh.Shards(), Expected: shardLoad.pairs * shardLoad.msgs,
		CrossPosts: sh.Group.CrossPosts()}
	var b strings.Builder
	r.Delivered = pairDigest(&b, out)
	retr, incs := 0, uint32(0)
	for _, m := range sh.Machines() {
		retr += m.Chans.TimeoutRetransmits
		incs += m.Kern.Incarnation()
	}
	st := sh.FabricStats()
	r.Handoffs = st.HandoffsOut
	fmt.Fprintf(&b, "retrans=%d incarnations=%d\n", retr, incs)
	fmt.Fprintf(&b, "fabric sent=%d delivered=%d bytes=%d\n",
		st.MessagesSent, st.MessagesDelivered, st.BytesDelivered)
	r.Digest = b.String()
	return r
}

// ShardSweep aggregates the sharded-vs-serial identity check over a
// seed range.
type ShardSweep struct {
	Start      int64
	Seeds      int
	Shards     int // the parallel shard count diffed against 1
	Matched    int
	Delivered  int
	Expected   int
	CrossPosts uint64
	Handoffs   int
	BadSeeds   []int64 // seeds whose digests diverged
	Diffs      []string
}

// RunShardSweep runs every seed at shards=1 and shards=want and
// byte-compares the outcome digests.
func RunShardSweep(start int64, n, want int) ShardSweep {
	s := ShardSweep{Start: start, Seeds: n, Shards: want}
	for i := 0; i < n; i++ {
		seed := start + int64(i)
		serial := ShardChaosRun(seed, 1)
		split := ShardChaosRun(seed, want)
		s.Shards = split.Shards
		s.Delivered += split.Delivered
		s.Expected += split.Expected
		s.CrossPosts += split.CrossPosts
		s.Handoffs += split.Handoffs
		if serial.Digest == split.Digest {
			s.Matched++
		} else {
			s.BadSeeds = append(s.BadSeeds, seed)
			s.Diffs = append(s.Diffs, fmt.Sprintf("seed %d:\n--- shards=1 ---\n%s--- shards=%d ---\n%s",
				seed, serial.Digest, split.Shards, split.Digest))
		}
	}
	return s
}

// OK reports whether every seed's digests matched.
func (s ShardSweep) OK() bool { return s.Matched == s.Seeds }

// Format renders the sweep summary, including diverging digests.
func (s ShardSweep) Format(w io.Writer) {
	fmt.Fprintf(w, "shard sweep: %d seeded crash/gray schedules (seeds %d..%d), shards=1 vs shards=%d on 1 host + %d nodes\n",
		s.Seeds, s.Start, s.Start+int64(s.Seeds)-1, s.Shards, sweepNodes)
	fmt.Fprintf(w, "  digests byte-identical: %d/%d; delivered %d/%d; %d cross-shard posts, %d boundary handoffs\n",
		s.Matched, s.Seeds, s.Delivered, s.Expected, s.CrossPosts, s.Handoffs)
	for _, d := range s.Diffs {
		fmt.Fprintf(w, "  DIVERGED %s", d)
	}
}
