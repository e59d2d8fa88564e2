package vorxbench

import (
	"fmt"
	"runtime"
	"strings"

	"hpcvorx/internal/core"
)

// E20 is the multi-core scaling table: a denser cross-cluster workload
// than E19 (twice the pool, more pairs, tighter pacing) swept over
// shard counts, reporting the sim.sync.* counters next to throughput
// so the cost of conservative synchronization is visible in the same
// row as the speedup it buys. The digest column is deterministic and
// must read "yes" at every shard count; the events/sec note is
// wall-clock and scales with host CPUs, so E20 joins E14/E18/E19
// outside the replication identity check.

// E20 geometry: 1 host + 63 nodes is 16 clusters of 4 — twice E19's
// pool, with cluster pairs up to 4 cube hops apart, so the route-aware
// lookahead matrix has real spread (1..4 x HopFixed).
const e20Nodes = 63

var e20Load = pairLoad{name: "e20-%d", pairs: 30, msgs: 12, size: 128, sizeStep: 8,
	writerAt: 1, readerAt: 5, stagger: 11, pace: 170, paceStep: 5}

// E20MultiCoreScaling sweeps shard counts over the dense 16-cluster
// pool. The table rows are deterministic (virtual-time event counts,
// digests); the sim.sync.* counters depend on how the host scheduler
// interleaved the shards (a shard that happens to park draws extra
// wakeups, and grant runs split differently), so they ride in the
// host-dependent notes next to the wall clock, outside CI's double-run
// diff.
func E20MultiCoreScaling() *Table {
	t := &Table{ID: "E20", Title: "multi-core scaling: dense 16-cluster pool over shard counts"}
	runs := sweepShards(t, func(shards int) ShardMeasure {
		return e20Load.measure(core.Config{Hosts: 1, Nodes: e20Nodes, Seed: 20, Shards: shards})
	})
	t.Note("identical = per-pair delivery digest byte-equal to shards=1, the parallel kernel's " +
		"contract at every shard count")
	var sync []string
	for _, r := range runs[1:] {
		sync = append(sync, fmt.Sprintf("shards=%d pubs=%d null=%d wakes=%d drain=%.1f",
			r.Shards, r.Sync.HorizonPublishes, r.Sync.NullMessages,
			r.Sync.Wakeups, r.Sync.AvgDrainRun()))
	}
	t.Note("sync counters (host-dependent, this run): %s — pubs = front raises published "+
		"(one store each), null = raises after a grant run that posted no cross, wakes = park/wake "+
		"signals, drain = events dispatched per safe-bound computation (grant batching, higher is cheaper)",
		strings.Join(sync, "; "))
	t.Note("wall clock (host-dependent, this run, GOMAXPROCS=%d, %d CPUs): %s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), wallRates(runs))
	return t
}
