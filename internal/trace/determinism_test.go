package trace_test

// End-to-end guarantees of the unified tracer, tested on the full
// stack: (1) enabling tracing does not perturb the simulation at all,
// (2) traced runs are deterministic — two same-seed runs emit
// byte-identical trace files, (3) one channel write is followable by
// its trace ID from Write through fragments, hops, delivery, and ack,
// across a node crash and endpoint migration.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/super"
	"hpcvorx/internal/trace"
)

// healState is the Checkpointer for the supervised pipe tasks.
type healState struct {
	read    int
	written int
	log     []string
}

func (hs *healState) Checkpoint() ([]byte, map[string]super.Mark) {
	return []byte(fmt.Sprintf("%d|%d|%s", hs.read, hs.written, strings.Join(hs.log, ","))),
		map[string]super.Mark{"pipe": {Read: hs.read, Written: hs.written}}
}

func restoreHealState(b []byte) *healState {
	hs := &healState{}
	if len(b) == 0 {
		return hs
	}
	parts := strings.SplitN(string(b), "|", 3)
	hs.read, _ = strconv.Atoi(parts[0])
	hs.written, _ = strconv.Atoi(parts[1])
	if parts[2] != "" {
		hs.log = strings.Split(parts[2], ",")
	}
	return hs
}

// runHeal drives the full heal pipeline — a supervised writer on node0
// streams n messages to a supervised reader on node1, the reader node
// crashes mid-stream, the supervisor restarts it from checkpoint on a
// spare and rebinds the channel — with tracing on or off. It returns
// the system and the reader's final log.
func runHeal(t *testing.T, traced bool, n int) (*core.System, *super.Supervisor, []string) {
	t.Helper()
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		sys.Trace.Enable()
	}
	res := resmgr.NewVORX(sys.K, len(sys.Nodes()))
	if _, err := res.Allocate("app", 2); err != nil {
		t.Fatal(err)
	}
	cfg := super.Config{
		HeartbeatEvery:  500 * sim.Microsecond,
		ConfirmAfter:    2 * sim.Millisecond,
		CheckpointEvery: 1 * sim.Millisecond,
	}
	sup := super.New(sys, sys.Host(0), res, cfg)

	eng := fault.New(sys.K, 7)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false)
	// Crash the reader's node.
	if err := eng.Apply([]fault.Op{{At: 2 * sim.Millisecond, Kind: "crash", Args: []string{"node1"}}}); err != nil {
		t.Fatal(err)
	}

	var final []string
	writer := sup.NewTask("writer", sys.Node(0), 0, nil)
	reader := sup.NewTask("reader", sys.Node(1), 0, nil)
	writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		hs := restoreHealState(inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			writer.Attach(ch)
		}
		writer.SetCheckpointer(hs)
		for hs.written < n {
			if err := ch.Write(sp, 128, fmt.Sprintf("m%d", hs.written)); err != nil {
				return
			}
			hs.written++
			sp.SleepFor(300 * sim.Microsecond)
		}
	})
	reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		hs := restoreHealState(inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			reader.Attach(ch)
		}
		reader.SetCheckpointer(hs)
		for hs.read < n {
			m, ok := ch.Read(sp)
			if !ok {
				return
			}
			hs.log = append(hs.log, m.Payload.(string))
			hs.read++
		}
		final = hs.log
	})
	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(60 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(final) != n {
		t.Fatalf("reader finished with %d/%d messages", len(final), n)
	}
	return sys, sup, final
}

// TestTracingDoesNotPerturbSimulation: the same seed with tracing on
// and off must quiesce at the same virtual instant with identical
// application-visible behaviour.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	off, offSup, offLog := runHeal(t, false, 20)
	on, onSup, onLog := runHeal(t, true, 20)
	if off.K.Now() != on.K.Now() {
		t.Fatalf("quiesce differs: off %v, on %v", off.K.Now(), on.K.Now())
	}
	if strings.Join(offLog, ",") != strings.Join(onLog, ",") {
		t.Fatalf("reader logs differ:\noff %v\non  %v", offLog, onLog)
	}
	offStats, onStats := off.IC.Stats(), on.IC.Stats()
	if offStats != onStats {
		t.Fatalf("interconnect stats differ:\noff %+v\non  %+v", offStats, onStats)
	}
	if offSup.Heartbeats != onSup.Heartbeats || offSup.Checkpoints != onSup.Checkpoints ||
		offSup.Restarts != onSup.Restarts || offSup.Rebinds != onSup.Rebinds {
		t.Fatalf("supervisor counters differ: off %d/%d/%d/%d, on %d/%d/%d/%d",
			offSup.Heartbeats, offSup.Checkpoints, offSup.Restarts, offSup.Rebinds,
			onSup.Heartbeats, onSup.Checkpoints, onSup.Restarts, onSup.Rebinds)
	}
	if off.Trace.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d events", off.Trace.Len())
	}
	if on.Trace.Len() == 0 {
		t.Fatal("enabled tracer recorded nothing")
	}
}

// TestTracedRunsEmitIdenticalFiles: two traced same-seed runs produce
// byte-identical Chrome and flight-recorder dumps.
func TestTracedRunsEmitIdenticalFiles(t *testing.T) {
	a, _, _ := runHeal(t, true, 20)
	b, _, _ := runHeal(t, true, 20)
	var ca, cb, fa, fb bytes.Buffer
	if err := a.Trace.WriteChrome(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.Trace.WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("Chrome exports differ between same-seed runs")
	}
	if err := a.Trace.WriteFlight(&fa); err != nil {
		t.Fatal(err)
	}
	if err := b.Trace.WriteFlight(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa.Bytes(), fb.Bytes()) {
		t.Fatal("flight exports differ between same-seed runs")
	}
}

// TestWriteFollowableAcrossCrashAndMigration: trace IDs thread one
// causal chain through every wire message a channel write produces.
// At least one write must be followable write → fragment → hop →
// deliver → ack, and at least one retransmitted write must complete
// on the migrated endpoint — its delivery lands after the crash on a
// node other than the one that died.
func TestWriteFollowableAcrossCrashAndMigration(t *testing.T) {
	sys, _, _ := runHeal(t, true, 20)
	events := sys.Trace.Events()

	var crashAt sim.Time
	for _, e := range events {
		if e.Kind == trace.KCrash && e.Node == "node1" {
			crashAt = e.At
			break
		}
	}
	if crashAt == 0 {
		t.Fatal("no crash event for node1")
	}

	byTID := map[uint64]map[trace.Kind][]trace.Event{}
	for _, e := range events {
		if e.TID == 0 {
			continue
		}
		m := byTID[e.TID]
		if m == nil {
			m = map[trace.Kind][]trace.Event{}
			byTID[e.TID] = m
		}
		m[e.Kind] = append(m[e.Kind], e)
	}

	full := 0     // writes followable end to end
	migrated := 0 // retransmitted writes delivered on the spare after the crash
	for _, kinds := range byTID {
		if len(kinds[trace.KWrite]) == 0 {
			continue
		}
		complete := len(kinds[trace.KFragment]) > 0 && len(kinds[trace.KHop]) > 0 &&
			len(kinds[trace.KChanDel]) > 0 && len(kinds[trace.KAck]) > 0
		if complete {
			full++
		}
		if complete && len(kinds[trace.KRetransmit]) > 0 {
			for _, d := range kinds[trace.KChanDel] {
				if d.At > crashAt && d.Node != "node1" {
					migrated++
					break
				}
			}
		}
	}
	if full == 0 {
		t.Fatal("no write followable write -> fragment -> hop -> deliver -> ack by one trace ID")
	}
	if migrated == 0 {
		t.Fatal("no retransmitted write followable across the crash onto the migrated endpoint")
	}
}
