package vorxbench

import (
	"fmt"
	"strings"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// E19 measures the parallel discrete-event kernel: the same
// installation and workload run at increasing shard counts, checking
// that every split dispatches byte-identically to the serial run and
// reporting how the event volume divides across shards. Every column
// is virtual-time derived, so the table is deterministic; what the
// shards cost the host is perfbench's to measure, with repeats
// (sim.group.speedup_vs_serial and the sim.group.* counters on
// pairs_sharded).

// pairLoad is the paced cross-cluster channel workload the shard
// experiments share: writer pi on node pi and reader pi on node
// pi+pairs open the channel named by fmt.Sprintf(name, pi) at
// staggered, tie-free instants, then the writer sends msgs writes of
// its own size with its own pacing. objmgr hashes the channel names
// for manager placement, so each experiment keeps its own.
type pairLoad struct {
	name               string
	pairs, msgs        int
	size, sizeStep     int // pair pi writes size+sizeStep*pi bytes
	writerAt, readerAt int // pair pi opens at (at+stagger*pi) us
	stagger            int
	pace, paceStep     int // and sleeps (pace+paceStep*pi) us after each write
}

// pairOutcome is what reader pi saw: messages received and the virtual
// instant of the last one.
type pairOutcome struct {
	recv int
	done sim.Time
}

// spawn starts every pair on sh. Each reader fills only its own slot
// of the returned slice, so readers on different shards never race;
// read it after the run.
func (l pairLoad) spawn(sh *core.Sharded) []pairOutcome {
	out := make([]pairOutcome, l.pairs)
	at := func(base, pi int) sim.Duration { return sim.Duration(base+l.stagger*pi) * sim.Microsecond }
	for pi := 0; pi < l.pairs; pi++ {
		pi := pi
		name := fmt.Sprintf(l.name, pi)
		wm, rm := sh.Node(pi), sh.Node(pi+l.pairs)
		size := l.size + l.sizeStep*pi
		pace := sim.Duration(l.pace+l.paceStep*pi) * sim.Microsecond
		sh.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(at(l.writerAt, pi))
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < l.msgs; i++ {
				if err := ch.Write(sp, size, fmt.Sprintf("m%d.%d", pi, i)); err != nil {
					return
				}
				sp.SleepFor(pace)
			}
		})
		sh.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(at(l.readerAt, pi))
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < l.msgs; i++ {
				if _, ok := ch.Read(sp); !ok {
					return
				}
				out[pi].recv++
				out[pi].done = rm.Kern.Kernel().Now()
			}
		})
	}
	return out
}

// pairDigest renders the per-pair outcomes canonically and counts the
// messages delivered.
func pairDigest(b *strings.Builder, out []pairOutcome) (delivered int) {
	for pi, o := range out {
		fmt.Fprintf(b, "pair%d recv=%d done=%d\n", pi, o.recv, int64(o.done))
		delivered += o.recv
	}
	return delivered
}

// measure runs the load once on cfg's sharded build.
func (l pairLoad) measure(cfg core.Config) ShardMeasure {
	sh, err := core.BuildSharded(cfg)
	if err != nil {
		panic(err)
	}
	out := l.spawn(sh)
	if err := sh.Run(); err != nil {
		panic(err)
	}

	var b strings.Builder
	pairDigest(&b, out)
	// A shard with no late events parks early, so the makespan is the
	// leading shard clock.
	var makespan sim.Time
	for _, sys := range sh.Sys {
		if n := sys.K.Now(); n > makespan {
			makespan = n
		}
	}
	return ShardMeasure{
		Digest:   b.String(),
		Events:   sh.Group.Scheduled(),
		Cross:    sh.Group.CrossPosts(),
		Handoffs: sh.FabricStats().HandoffsOut,
		Makespan: makespan,
	}
}

// ShardMeasure is one measured execution of a sharded workload: the
// deterministic outcome digest (byte-comparable across shard counts)
// and the virtual-time event volume.
type ShardMeasure struct {
	Digest   string
	Events   uint64
	Cross    uint64
	Handoffs int
	Makespan sim.Time
}

// sweepShards runs one workload at 1, 2, 4 and 8 shards, one table row
// each; identical says whether a split's digest equals the serial
// run's.
func sweepShards(t *Table, run func(shards int) ShardMeasure) {
	t.Header = []string{"shards", "events", "cross posts", "handoffs",
		"cross/events (%)", "makespan (us)", "identical"}
	var serial string
	for _, shards := range []int{1, 2, 4, 8} {
		r := run(shards)
		if shards == 1 {
			serial = r.Digest
		}
		identical := "yes"
		if r.Digest != serial {
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
	}
}

// E19 geometry: 1 host + 31 nodes is 8 clusters of 4, the largest
// power-of-two cluster count the default pool shape yields, so the
// sweep can halve cleanly from 8 shards down to 1.
const e19Nodes = 31

var e19Load = pairLoad{name: "e19-%d", pairs: 14, msgs: 10, size: 192, sizeStep: 16,
	writerAt: 1, readerAt: 9, stagger: 17, pace: 310, paceStep: 7}

// e19Run drives the cross-cluster pair workload at one shard count.
func e19Run(shards int) ShardMeasure {
	return e19Load.measure(core.Config{Hosts: 1, Nodes: e19Nodes, Seed: 19, Shards: shards})
}

// E19ShardScaling sweeps shard counts over one installation.
func E19ShardScaling() *Table {
	t := &Table{ID: "E19", Title: "parallel kernel: sharded virtual time vs serial, 8-cluster pool"}
	sweepShards(t, e19Run)
	t.Note("identical = per-pair delivery digest byte-equal to shards=1; the CI shard sweep " +
		"(vorx chaos -shardsweep) enforces the same identity under crash/gray fault schedules")
	t.Note("lookahead: two cube hops (2 x HopFixed, 2us) between any two shards, one (1us) while " +
		"a frame under 20 B is in flight; a shard advances to the earliest time another shard's " +
		"front or in-flight mail could reach it one promise later, or its own front two promises later")
	t.Note("speedup needs real cores: on a 1-CPU host the shard goroutines serialize and " +
		"cross-shard synchronization is pure overhead")
	return t
}
