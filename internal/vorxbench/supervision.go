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
)

// e13Metrics is one supervised crash/heal run's outcome.
type e13Metrics struct {
	heartbeat   sim.Duration // H
	confirm     sim.Duration // T (confirm timeout)
	detect      sim.Duration // crash -> confirmed dead
	unavail     sim.Duration // delivery gap around the crash
	bound       sim.Duration // T + 2H + restart + slop
	recovered   float64      // checkpointed progress / progress at crash
	consumedAt  int          // messages consumed when the node died
	restoredAt  int          // read cursor in the restored checkpoint
	dups, lost  int
	checkpoints int
}

// e13Run crashes a supervised reader mid-stream under heartbeat period
// h (confirm timeout 4h) and measures the unavailability window and
// recovered-work ratio. Deterministic: same h, same numbers.
func e13Run(h sim.Duration) e13Metrics {
	const (
		msgs    = 30
		pace    = 300 * sim.Microsecond
		crashAt = 3 * sim.Millisecond
	)
	cfg := super.Config{
		HeartbeatEvery:  h,
		ConfirmAfter:    4 * h,
		CheckpointEvery: 1 * sim.Millisecond,
	}
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 5, Seed: 13})
	if err != nil {
		panic(err)
	}
	res := resmgr.NewVORX(sys.K, 5)
	if _, err := res.Allocate("app", 2); err != nil {
		panic(err)
	}
	sup := super.New(sys, sys.Host(0), res, cfg)
	eng := fault.New(sys.K, 13)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false)
	if err := eng.Apply([]fault.Op{{At: crashAt, Kind: "crash", Args: []string{"node1"}}}); err != nil {
		panic(err)
	}

	var (
		deliveries []sim.Time
		consumed   int // live read cursor, sampled at the crash
		sampledC   int
		restoredK  = -1
		final      []string
	)
	writer := sup.NewTask("writer", sys.Node(0), 0, nil)
	reader := sup.NewTask("reader", sys.Node(1), 0, nil)
	writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ss := super.RestoreStream("e13", inc.State)
		ch := inc.Chan("e13")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "e13", objmgr.OpenAny)
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
		ss := super.RestoreStream("e13", inc.State)
		if inc.Gen > 0 && restoredK < 0 {
			restoredK = ss.Read
		}
		ch := inc.Chan("e13")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "e13", objmgr.OpenAny)
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
			consumed = ss.Read
			deliveries = append(deliveries, sp.Now())
		}
		final = ss.Log
	})
	sys.K.At(sim.Time(crashAt), func() { sampledC = consumed })
	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(100 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		panic(err)
	}

	m := e13Metrics{heartbeat: h, confirm: cfg.ConfirmAfter, checkpoints: sup.Checkpoints}
	if confirm, ok := sup.FirstRecord("confirm", 0); ok {
		m.detect = confirm.At.Sub(sim.Time(crashAt))
	}
	// Unavailability: the largest delivery gap (the stream pauses from
	// the last pre-crash delivery to the first post-restart one).
	for i := 1; i < len(deliveries); i++ {
		if gap := deliveries[i].Sub(deliveries[i-1]); gap > m.unavail {
			m.unavail = gap
		}
	}
	m.bound = cfg.ConfirmAfter + 2*h + super.RestartDelay + 1*sim.Millisecond
	m.consumedAt = sampledC
	m.restoredAt = restoredK
	if sampledC > 0 && restoredK >= 0 {
		m.recovered = float64(restoredK) / float64(sampledC)
	}
	// Exactly-once audit of the final log.
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
		m.lost = msgs // the reader never finished at all
	}
	return m
}

// E13Supervision sweeps the supervisor's detection interval and
// reports the unavailability window (delivery gap around a node crash)
// and the recovered-work ratio (checkpointed progress at restart over
// progress at the moment of death). Faster heartbeats shrink the
// window; the checkpoint interval, not detection, governs how much
// work survives. Every row is exactly-once: zero duplicates, zero
// losses.
func E13Supervision() *Table {
	t := &Table{
		ID:    "E13",
		Title: "Supervised checkpoint/restart: unavailability vs. detection interval (extension)",
		Header: []string{"heartbeat", "confirm", "detect latency", "unavail window",
			"bound", "recovered work", "dup", "lost"},
	}
	for _, h := range []sim.Duration{250 * sim.Microsecond, 500 * sim.Microsecond,
		1 * sim.Millisecond, 2 * sim.Millisecond} {
		m := e13Run(h)
		t.AddRow(
			fmt.Sprintf("%v", m.heartbeat),
			fmt.Sprintf("%v", m.confirm),
			fmt.Sprintf("%v", m.detect),
			fmt.Sprintf("%v", m.unavail),
			fmt.Sprintf("%v", m.bound),
			fmt.Sprintf("%d/%d (%.0f%%)", m.restoredAt, m.consumedAt, 100*m.recovered),
			fmt.Sprintf("%d", m.dups),
			fmt.Sprintf("%d", m.lost),
		)
	}
	t.Note("a supervised reader node dies at 3 ms mid-stream; heartbeat detection (confirm = 4H), checkpoint every 1 ms, restart cost 1 ms")
	t.Note("unavail window = largest delivery gap at the reader; bound = confirm + 2H sweep slop + restart + 1 ms replay slop")
	t.Note("recovered work = checkpointed read cursor at restart / messages consumed at the crash — set by the checkpoint interval, not by detection")
	return t
}
