package vorxbench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
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
const (
	e20Nodes = 63
	e20Pairs = 30
	e20Msgs  = 12
)

// e20Run drives the dense pair workload at one shard count.
func e20Run(shards int) ShardMeasure {
	sh, err := core.BuildSharded(core.Config{Hosts: 1, Nodes: e20Nodes, Seed: 20, Shards: shards})
	if err != nil {
		panic(err)
	}
	out := make([]e19Outcome, e20Pairs)
	for pi := 0; pi < e20Pairs; pi++ {
		pi := pi
		name := fmt.Sprintf("e20-%d", pi)
		wm, rm := sh.Node(pi), sh.Node(pi+e20Pairs)
		size := 128 + 8*pi
		sh.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(sim.Duration(1+11*pi) * sim.Microsecond)
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < e20Msgs; i++ {
				if err := ch.Write(sp, size, fmt.Sprintf("m%d.%d", pi, i)); err != nil {
					return
				}
				sp.SleepFor(sim.Duration(170+5*pi) * sim.Microsecond)
			}
		})
		sh.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(sim.Duration(5+11*pi) * sim.Microsecond)
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < e20Msgs; i++ {
				if _, ok := ch.Read(sp); !ok {
					return
				}
				out[pi].recv++
				out[pi].done = rm.Kern.Kernel().Now()
			}
		})
	}
	t0 := time.Now()
	if err := sh.Run(); err != nil {
		panic(err)
	}
	wall := time.Since(t0)

	var b strings.Builder
	for pi, o := range out {
		fmt.Fprintf(&b, "pair%d recv=%d done=%d\n", pi, o.recv, int64(o.done))
	}
	var makespan sim.Time
	for _, sys := range sh.Sys {
		if n := sys.K.Now(); n > makespan {
			makespan = n
		}
	}
	return ShardMeasure{
		Shards:   shards,
		Digest:   b.String(),
		Events:   sh.Group.Scheduled(),
		Cross:    sh.Group.CrossPosts(),
		Handoffs: sh.FabricStats().HandoffsOut,
		Makespan: makespan,
		Wall:     wall,
		Sync:     sh.Group.SyncStats(),
	}
}

// E20MultiCoreScaling sweeps shard counts over the dense 16-cluster
// pool. The table rows are deterministic (virtual-time event counts,
// digests); the sim.sync.* counters depend on how the host scheduler
// interleaved the shards (a shard that happens to park draws extra
// wakeups, and grant runs split differently), so they ride in the
// host-dependent notes next to the wall clock, outside CI's double-run
// diff.
func E20MultiCoreScaling() *Table {
	t := &Table{
		ID:    "E20",
		Title: "multi-core scaling: dense 16-cluster pool over shard counts",
		Header: []string{"shards", "events", "cross posts", "handoffs",
			"cross/events (%)", "makespan (us)", "identical"},
	}
	serialDigest := ""
	var serialWall time.Duration
	var runs []ShardMeasure
	for _, shards := range []int{1, 2, 4, 8} {
		r := e20Run(shards)
		identical := "yes"
		if shards == 1 {
			serialDigest, serialWall = r.Digest, r.Wall
		} else if r.Digest != serialDigest {
			identical = "NO"
		}
		t.AddRow(
			fmt.Sprint(shards),
			fmt.Sprint(r.Events),
			fmt.Sprint(r.Cross),
			fmt.Sprint(r.Handoffs),
			fmt.Sprintf("%.2f", 100*float64(r.Cross)/float64(r.Events)),
			us(float64(r.Makespan)/1e3),
			identical,
		)
		runs = append(runs, r)
	}
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
	var parts []string
	for _, r := range runs {
		evps := float64(r.Events) / r.Wall.Seconds()
		parts = append(parts, fmt.Sprintf("shards=%d %.0fk ev/s (%.2fx)",
			r.Shards, evps/1e3, serialWall.Seconds()/r.Wall.Seconds()))
	}
	t.Note("wall clock (host-dependent, this run, GOMAXPROCS=%d, %d CPUs): %s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), strings.Join(parts, ", "))
	return t
}
