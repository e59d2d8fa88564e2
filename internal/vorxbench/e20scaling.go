package vorxbench

import "hpcvorx/internal/core"

// E20 is the multi-core scaling table: a denser cross-cluster workload
// than E19 (twice the pool, more pairs, tighter pacing) swept over
// shard counts. Every column is virtual-time derived and the digest
// column must read "yes" at every shard count; what the shards cost
// the host (wall clock, front publishes, wakeups, events per grant) is
// perfbench's to measure, with repeats, on pairs_sharded.

// E20 geometry: 1 host + 63 nodes is 16 clusters of 4 — twice E19's
// pool, with clusters up to 4 cube hops apart.
const e20Nodes = 63

var e20Load = pairLoad{name: "e20-%d", pairs: 30, msgs: 12, size: 128, sizeStep: 8,
	writerAt: 1, readerAt: 5, stagger: 11, pace: 170, paceStep: 5}

// E20MultiCoreScaling sweeps shard counts over the dense 16-cluster
// pool.
func E20MultiCoreScaling() *Table {
	t := &Table{ID: "E20", Title: "multi-core scaling: dense 16-cluster pool over shard counts"}
	sweepShards(t, func(shards int) ShardMeasure {
		return e20Load.measure(core.Config{Hosts: 1, Nodes: e20Nodes, Seed: 20, Shards: shards})
	})
	t.Note("identical = per-pair delivery digest byte-equal to shards=1, the parallel kernel's " +
		"contract at every shard count")
	return t
}
