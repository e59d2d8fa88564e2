package vorxbench

import (
	"fmt"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/super"
	"hpcvorx/internal/verify"
)

// e16Metrics is one partitioned supervised run's outcome.
type e16Metrics struct {
	cut        string       // clusters isolated from the rest
	dur        sim.Duration // partition duration
	quorum     bool         // did the supervisor keep quorum?
	detect     sim.Duration // partition start -> first confirm (0 if held)
	unavail    sim.Duration // largest delivery gap
	restarts   int
	holds      int // quorum-holds (suspects parked, no restart)
	falseSusp  int // suspicions cleared by returning heartbeats
	refused    int // frames structurally refused below a fence floor
	reboots    int // zombie self-fences (reboot above the floor)
	dups, lost int
	violations int
}

// e16Run streams writer(node3, cluster 1) -> reader(node7, cluster 2)
// under fence-mode supervision from host0 (cluster 0), cuts the
// minority clusters listed in cut ("1,2") out of the fabric at 3ms for
// dur, heals, and audits the delivered log. Deterministic: same cut
// and dur, same numbers.
func e16Run(cut string, dur sim.Duration) e16Metrics {
	const (
		msgs    = 30
		pace    = 300 * sim.Microsecond
		cutAt   = 3 * sim.Millisecond
		writerN = 3 // cluster 1
		readerN = 7 // cluster 2
	)
	cfg := super.Config{
		HeartbeatEvery:  500 * sim.Microsecond,
		ConfirmAfter:    2 * sim.Millisecond,
		CheckpointEvery: 1 * sim.Millisecond,
		Fence:           true,
	}
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 15, Seed: 16})
	if err != nil {
		panic(err)
	}
	chk := verify.Attach(sys)
	res := resmgr.NewVORX(sys.K, 15)
	if _, err := res.AllocateWhere("app", 2, func(id resmgr.NodeID) bool {
		return id == writerN || id == readerN
	}); err != nil {
		panic(err)
	}
	sup := super.New(sys, sys.Host(0), res, cfg)
	sup.SetVerifier(chk)
	eng := fault.New(sys.K, 16)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false)
	if err := eng.Apply([]fault.Op{
		{At: cutAt, Kind: "partition", Args: []string{cut}},
		{At: cutAt + dur, Kind: "heal"},
	}); err != nil {
		panic(err)
	}

	var (
		deliveries []sim.Time
		final      []string
	)
	writer := sup.NewTask("writer", sys.Node(writerN), 0, nil)
	reader := sup.NewTask("reader", sys.Node(readerN), 0, nil)
	writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ss := super.RestoreStream("e16", inc.State)
		ch := inc.Chan("e16")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "e16", objmgr.OpenAny)
			writer.Attach(ch)
		}
		writer.SetCheckpointer(ss)
		for ss.Written < msgs {
			if err := ch.Write(sp, 256, fmt.Sprintf("m%d", ss.Written)); err != nil {
				return
			}
			ss.Written++
			sp.SleepFor(pace)
		}
	})
	reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ss := super.RestoreStream("e16", inc.State)
		ch := inc.Chan("e16")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "e16", objmgr.OpenAny)
			reader.Attach(ch)
		}
		reader.SetCheckpointer(ss)
		for ss.Read < msgs {
			m, ok := ch.Read(sp)
			if !ok {
				return
			}
			ss.Log = append(ss.Log, m.Payload.(string))
			ss.Read++
			deliveries = append(deliveries, sp.Now())
		}
		final = ss.Log
	})
	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(100 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		panic(err)
	}

	m := e16Metrics{
		cut: cut, dur: dur,
		restarts: sup.Restarts, holds: sup.QuorumHolds, falseSusp: sup.FalseSuspects,
		violations: len(chk.Violations()),
	}
	m.quorum = sup.Restarts > 0 || sup.QuorumHolds == 0
	if confirm, ok := sup.FirstRecord("confirm", 0); ok {
		m.detect = confirm.At.Sub(sim.Time(cutAt))
	}
	for i := 1; i < len(deliveries); i++ {
		if gap := deliveries[i].Sub(deliveries[i-1]); gap > m.unavail {
			m.unavail = gap
		}
	}
	for _, mm := range sys.Machines() {
		m.refused += mm.IF.FencedDrops
		m.reboots += mm.IF.SelfFences
	}
	seen := map[string]int{}
	for _, p := range final {
		seen[p]++
	}
	for i := 0; i < msgs; i++ {
		switch n := seen[fmt.Sprintf("m%d", i)]; {
		case n == 0:
			m.lost++
		case n > 1:
			m.dups += n - 1
		}
	}
	if len(final) == 0 {
		m.lost = msgs
	}
	return m
}

// E16Partitions sweeps unavailability against partition size and
// duration under fence-mode supervision. Majority-side cuts are
// detected and healed by migration; cuts that cost the supervisor its
// quorum are held (suspects parked, nothing restarted) until the
// fabric merges back.
func E16Partitions() *Table {
	t := &Table{
		ID:    "E16",
		Title: "partition tolerance: unavailability vs. partition size and duration (fence-mode supervision)",
		Header: []string{"cut clusters", "duration", "quorum", "detect", "unavail",
			"restarts", "holds", "cleared", "refused", "reboots", "dup", "lost", "violations"},
	}
	rows := []struct {
		cut string
		dur sim.Duration
	}{
		{"1", 2 * sim.Millisecond},
		{"1", 4 * sim.Millisecond},
		{"1", 6 * sim.Millisecond},
		{"1,2", 3 * sim.Millisecond},
		{"1,2,3", 3 * sim.Millisecond},
	}
	for _, r := range rows {
		m := e16Run(r.cut, r.dur)
		q := "held"
		if m.quorum {
			q = "kept"
		}
		detect := "-"
		if m.detect > 0 {
			detect = fmt.Sprint(m.detect)
		}
		t.AddRow(m.cut, fmt.Sprint(m.dur), q, detect, fmt.Sprint(m.unavail),
			fmt.Sprint(m.restarts), fmt.Sprint(m.holds), fmt.Sprint(m.falseSusp),
			fmt.Sprint(m.refused), fmt.Sprint(m.reboots),
			fmt.Sprint(m.dups), fmt.Sprint(m.lost), fmt.Sprint(m.violations))
	}
	t.Note("1 host + 15 nodes (4 clusters of 4); writer on node3 (cluster 1), reader on node7 (cluster 2), supervisor on host0 (cluster 0)")
	t.Note("cutting cluster 1 isolates the writer: the majority confirms it, fences its incarnation, and migrates the task; the healed zombie is refused and reboots above the floor")
	t.Note("cutting clusters 1,2 (no surviving 1<->2 link) stalls the stream and costs the supervisor its quorum: suspects are held, nothing restarts, the merge clears them")
	t.Note("cutting clusters 1,2,3 also drops quorum, but 1-3-2 routing keeps the stream moving: the app outlives its own supervisor's blackout")
	t.Note("violations column is the internal/verify invariant checker (incarnation fencing, exactly-once, FIFO, retention conservation)")
	return t
}
