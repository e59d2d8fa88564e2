package super_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/super"
)

func build(t *testing.T, hosts, nodes int) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{Hosts: hosts, Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

var testCfg = super.Config{
	HeartbeatEvery:  500 * sim.Microsecond,
	ConfirmAfter:    2 * sim.Millisecond,
	CheckpointEvery: 1 * sim.Millisecond,
}

// TestHeartbeatDetectionTimeline: a crash with the fault engine's
// oracle off is detected purely by heartbeat loss — suspect after
// 2H of silence, dead after ConfirmAfter — and the window
// from crash to confirm is bounded by confirm timeout + one sweep
// period (plus fabric latency slop).
func TestHeartbeatDetectionTimeline(t *testing.T) {
	sys := build(t, 1, 3)
	sup := super.New(sys, sys.Host(0), nil, testCfg)

	eng := fault.New(sys.K, 7)
	eng.Bind(sys)
	eng.SetOracle(false)
	crashAt := 3 * sim.Millisecond
	if err := eng.Apply([]fault.Op{{At: crashAt, Kind: "crash", Args: []string{"node1"}}}); err != nil {
		t.Fatal(err)
	}

	sup.Start()
	sup.StopAt(10 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	if got := sup.MemberState(sys.Node(1).EP); got != super.Dead {
		t.Fatalf("node1 state = %v, want dead", got)
	}
	if got := sup.MemberState(sys.Node(0).EP); got != super.Alive {
		t.Fatalf("node0 state = %v, want alive", got)
	}
	if sup.Heartbeats == 0 {
		t.Fatal("supervisor absorbed no heartbeats")
	}

	suspect, ok := sup.FirstRecord("suspect", 0)
	if !ok {
		t.Fatal("no suspect record")
	}
	confirm, ok := sup.FirstRecord("confirm", 0)
	if !ok {
		t.Fatal("no confirm record")
	}
	if suspect.At.Sub(0) <= crashAt {
		t.Fatalf("suspected at %v, before the crash at %v", suspect.At, crashAt)
	}
	if confirm.At.Sub(suspect.At) <= 0 {
		t.Fatalf("confirm (%v) not after suspect (%v)", confirm.At, suspect.At)
	}
	// Bound: silence starts at most H after the last pre-crash beat,
	// confirm fires on the first sweep seeing >= ConfirmAfter of
	// silence, sweeps run every H. Allow 500us of fabric latency slop.
	bound := crashAt + testCfg.ConfirmAfter + 2*testCfg.HeartbeatEvery + 500*sim.Microsecond
	if confirm.At.Sub(0) > bound {
		t.Fatalf("confirmed at %v, want within %v of the crash", confirm.At, bound)
	}
}

// TestSuspicionClearsOnResumedHeartbeat: silence shorter than the
// confirm timeout (here from a temporarily partitioned-looking crash/
// restart) suspects the machine but never declares it dead.
func TestSuspicionClearsOnResumedHeartbeat(t *testing.T) {
	sys := build(t, 1, 2)
	sup := super.New(sys, sys.Host(0), nil, testCfg)

	eng := fault.New(sys.K, 7)
	eng.Bind(sys)
	eng.SetOracle(false)
	if err := eng.Apply([]fault.Op{
		{At: 3 * sim.Millisecond, Kind: "crash", Args: []string{"node0"}},
		{At: 4400 * sim.Microsecond, Kind: "restart", Args: []string{"node0"}}, // inside the confirm window
	}); err != nil {
		t.Fatal(err)
	}

	sup.Start()
	sup.StopAt(10 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	if _, ok := sup.FirstRecord("suspect", 0); !ok {
		t.Fatal("short outage should at least be suspected")
	}
	if _, ok := sup.FirstRecord("confirm", 0); ok {
		t.Fatal("short outage must not be confirmed dead")
	}
	if _, ok := sup.FirstRecord("clear", 0); !ok {
		t.Fatal("resumed heartbeats should clear the suspicion")
	}
	if got := sup.MemberState(sys.Node(0).EP); got != super.Alive {
		t.Fatalf("node0 state = %v, want alive after recovery", got)
	}
}

// pipeState is a Checkpointer for the test tasks: a message log plus
// per-channel marks, serialized as "read|written|payload,payload,...".
type pipeState struct {
	chName  string
	read    int
	written int
	log     []string
}

func (ps *pipeState) Checkpoint() (state []byte, marks map[string]super.Mark) {
	return []byte(fmt.Sprintf("%d|%d|%s", ps.read, ps.written, strings.Join(ps.log, ","))),
		map[string]super.Mark{ps.chName: {Read: ps.read, Written: ps.written}}
}

func restorePipeState(chName string, b []byte) *pipeState {
	ps := &pipeState{chName: chName}
	if len(b) == 0 {
		return ps
	}
	parts := strings.SplitN(string(b), "|", 3)
	ps.read, _ = strconv.Atoi(parts[0])
	ps.written, _ = strconv.Atoi(parts[1])
	if parts[2] != "" {
		ps.log = strings.Split(parts[2], ",")
	}
	return ps
}

// healScenario runs the full checkpoint/restart/migration pipeline: a
// supervised writer streams N paced messages to a supervised reader,
// the fault engine (oracle off) crashes the named victim mid-stream,
// and the supervisor detects, restarts from checkpoint on a spare, and
// rebinds the survivor. It returns the reader's final message log, the
// supervisor, and the system.
func healScenario(t *testing.T, victim string, n int) ([]string, *super.Supervisor, *core.System) {
	t.Helper()
	sys := build(t, 1, 4)
	res := resmgr.NewVORX(sys.K, len(sys.Nodes()))
	if _, err := res.Allocate("app", 2); err != nil { // nodes 0,1
		t.Fatal(err)
	}
	sup := super.New(sys, sys.Host(0), res, testCfg)

	eng := fault.New(sys.K, 7)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false)

	var final []string
	done := false

	writer := sup.NewTask("writer", sys.Node(0), 0, nil)
	reader := sup.NewTask("reader", sys.Node(1), 0, nil)

	writerBody := func(sp *kern.Subprocess, inc *super.Incarnation) {
		ps := restorePipeState("pipe", inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			writer.Attach(ch)
		}
		writer.SetCheckpointer(ps)
		// Regenerate the stream from the checkpointed cursor: replayed
		// writes reuse their original sequence numbers, so the peer
		// deduplicates anything it already consumed.
		for ps.written < n {
			payload := fmt.Sprintf("m%d", ps.written)
			if err := ch.Write(sp, 128, payload); err != nil {
				t.Errorf("writer gen %d: %v", inc.Gen, err)
				return
			}
			ps.written++
			sp.SleepFor(300 * sim.Microsecond)
		}
	}
	readerBody := func(sp *kern.Subprocess, inc *super.Incarnation) {
		ps := restorePipeState("pipe", inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			reader.Attach(ch)
		}
		reader.SetCheckpointer(ps)
		for ps.read < n {
			m, ok := ch.Read(sp)
			if !ok {
				return // killed by the crash; the next incarnation resumes
			}
			ps.log = append(ps.log, m.Payload.(string))
			ps.read++
		}
		final = ps.log
		done = true
	}
	writer.SetBody(writerBody)
	reader.SetBody(readerBody)

	var target string
	switch victim {
	case "writer":
		target = "node0"
	case "reader":
		target = "node1"
	default:
		t.Fatalf("bad victim %q", victim)
	}
	if err := eng.Apply([]fault.Op{{At: 2 * sim.Millisecond, Kind: "crash", Args: []string{target}}}); err != nil {
		t.Fatal(err)
	}

	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(60 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		sup.Report(testWriter{t})
		t.Fatalf("reader never finished: got %d messages", len(final))
	}
	return final, sup, sys
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }

func wantStream(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%d", i)
	}
	return out
}

// TestReaderDeathExactlyOnce: the reader node dies mid-stream; the
// supervisor restarts it from checkpoint on a spare, rebinds the
// writer's channel end, and the writer's retained messages replay the
// gap — the final log has every message exactly once, in order.
func TestReaderDeathExactlyOnce(t *testing.T) {
	const n = 20
	final, sup, sys := healScenario(t, "reader", n)
	if got, want := strings.Join(final, ","), strings.Join(wantStream(n), ","); got != want {
		t.Fatalf("reader log:\n got %s\nwant %s", got, want)
	}
	if sup.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", sup.Restarts)
	}
	if sup.Rebinds != 1 {
		t.Fatalf("Rebinds = %d, want 1", sup.Rebinds)
	}
	if sup.Checkpoints == 0 {
		t.Fatal("no checkpoints were committed")
	}
	// The writer survived: its end must never have been failed.
	if got := sys.Node(0).Chans.PeerDeaths; got != 0 {
		t.Fatalf("writer saw %d peer deaths, want 0 (managed end)", got)
	}
	// The spare was allocated through the resource manager.
	if _, ok := sup.FirstRecord("spare", 0); !ok {
		t.Fatal("no spare record")
	}
}

// TestWriterDeathExactlyOnce: the writer node dies mid-stream; its
// reincarnation regenerates the stream from the checkpointed cursor,
// and the reader's receive sequencing deduplicates the overlap.
func TestWriterDeathExactlyOnce(t *testing.T) {
	const n = 20
	final, sup, _ := healScenario(t, "writer", n)
	if got, want := strings.Join(final, ","), strings.Join(wantStream(n), ","); got != want {
		t.Fatalf("reader log:\n got %s\nwant %s", got, want)
	}
	if sup.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", sup.Restarts)
	}
}

// TestUnavailabilityWindowBounded: crash-to-recovery (first post-
// restart delivery) stays within detection + restart cost: confirm
// bound (ConfirmAfter + 2H) plus RestartDelay plus replay slop.
func TestUnavailabilityWindowBounded(t *testing.T) {
	const n = 20
	_, sup, _ := healScenario(t, "reader", n)
	confirm, ok := sup.FirstRecord("confirm", 0)
	if !ok {
		t.Fatal("no confirm record")
	}
	restart, ok := sup.FirstRecord("restart", 0)
	if !ok {
		t.Fatal("no restart record")
	}
	crashAt := 2 * sim.Millisecond
	detect := confirm.At.Sub(0) - crashAt
	if max := testCfg.ConfirmAfter + 2*testCfg.HeartbeatEvery + 500*sim.Microsecond; detect > max {
		t.Fatalf("detection took %v, want <= %v", detect, max)
	}
	gap := restart.At.Sub(confirm.At)
	if max := super.RestartDelay + 500*sim.Microsecond; gap > max {
		t.Fatalf("confirm-to-restart took %v, want <= %v", gap, max)
	}
}

// TestRetainedWritesReleasedByStableMarks: the writer's retained
// buffer is bounded by the reader's checkpoint progress — stable-mark
// notices drain it while both ends are healthy.
func TestRetainedWritesReleasedByStableMarks(t *testing.T) {
	const n = 20
	sys := build(t, 1, 2)
	sup := super.New(sys, sys.Host(0), nil, testCfg)

	writer := sup.NewTask("writer", sys.Node(0), 0, nil)
	reader := sup.NewTask("reader", sys.Node(1), 0, nil)
	var wch *channels.Channel
	writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ps := &pipeState{chName: "pipe"}
		wch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
		writer.Attach(wch)
		writer.SetCheckpointer(ps)
		for ps.written < n {
			if err := wch.Write(sp, 128, fmt.Sprintf("m%d", ps.written)); err != nil {
				t.Error(err)
				return
			}
			ps.written++
			sp.SleepFor(300 * sim.Microsecond)
		}
	})
	reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ps := &pipeState{chName: "pipe"}
		ch := inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
		reader.Attach(ch)
		reader.SetCheckpointer(ps)
		for ps.read < n {
			if _, ok := ch.Read(sp); !ok {
				t.Error("read failed")
				return
			}
			ps.read++
		}
	})
	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(30 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if wch.RetainedWrites() >= n {
		t.Fatalf("retained %d of %d writes: stable marks never released any", wch.RetainedWrites(), n)
	}
	if wch.RetainedWrites() == 0 && sup.Checkpoints == 0 {
		t.Fatal("no checkpoints committed")
	}
}

// TestUnstartedSupervisorIsInert: constructing (but never starting) a
// supervisor changes nothing — the same workload with the oracle-based
// fault engine runs to the same virtual end time with the same channel
// stats as a plain system. This is the byte-identical-when-disabled
// contract.
func TestUnstartedSupervisorIsInert(t *testing.T) {
	run := func(withSup bool) (sim.Time, int, string) {
		sys := build(t, 1, 3)
		if withSup {
			super.New(sys, sys.Host(0), nil, testCfg)
		}
		eng := fault.New(sys.K, 7)
		eng.Bind(sys)
		if err := eng.Apply([]fault.Op{{At: 4 * sim.Millisecond, Kind: "crash", Args: []string{"node1"}}}); err != nil {
			t.Fatal(err)
		}
		var got []string
		sys.Spawn(sys.Node(0), "writer", 0, func(sp *kern.Subprocess) {
			ch := sys.Node(0).Chans.Open(sp, "pipe", objmgr.OpenAny)
			for i := 0; i < 10; i++ {
				if err := ch.Write(sp, 128, fmt.Sprintf("m%d", i)); err != nil {
					return
				}
				sp.SleepFor(300 * sim.Microsecond)
			}
		})
		sys.Spawn(sys.Node(1), "reader", 0, func(sp *kern.Subprocess) {
			ch := sys.Node(1).Chans.Open(sp, "pipe", objmgr.OpenAny)
			for {
				m, ok := ch.Read(sp)
				if !ok {
					return
				}
				got = append(got, m.Payload.(string))
			}
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.K.Now(), sys.Node(0).Chans.PeerDeaths, strings.Join(got, ",")
	}
	endA, deathsA, logA := run(false)
	endB, deathsB, logB := run(true)
	if endA != endB || deathsA != deathsB || logA != logB {
		t.Fatalf("unstarted supervisor perturbed the run:\n plain: end=%v deaths=%d log=%s\n super: end=%v deaths=%d log=%s",
			endA, deathsA, logA, endB, deathsB, logB)
	}
}

// TestHealDeterminism: the full crash/detect/restart/rebind pipeline
// is bit-deterministic — two runs with the same seed produce identical
// supervision logs, stats, and reader output.
func TestHealDeterminism(t *testing.T) {
	run := func() string {
		final, sup, sys := healScenario(t, "reader", 20)
		var b strings.Builder
		sup.Report(&b)
		fmt.Fprintf(&b, "reader: %s\n", strings.Join(final, ","))
		fmt.Fprintf(&b, "stats: hb=%d ck=%d rs=%d rb=%d ef=%d end=%v\n",
			sup.Heartbeats, sup.Checkpoints, sup.Restarts, sup.Rebinds, sup.EndsFailed, sys.K.Now())
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical supervised runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestOrphanManagedEndFailed: a managed channel whose dead end belongs
// to no supervised task cannot be reincarnated — the surviving end
// must get a peer-death error, not a silent hang.
func TestOrphanManagedEndFailed(t *testing.T) {
	sys := build(t, 1, 2)
	sup := super.New(sys, sys.Host(0), nil, testCfg)

	eng := fault.New(sys.K, 7)
	eng.Bind(sys)
	eng.SetOracle(false)
	if err := eng.Apply([]fault.Op{{At: 2 * sim.Millisecond, Kind: "crash", Args: []string{"node1"}}}); err != nil {
		t.Fatal(err)
	}

	readOK := true
	returned := false
	reader := sup.NewTask("reader", sys.Node(0), 0, nil)
	reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ch := inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
		reader.Attach(ch)
		_, readOK = ch.Read(sp)
		returned = true
	})
	// The peer is a plain subprocess, not a supervised task.
	sys.Spawn(sys.Node(1), "writer", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "pipe", objmgr.OpenAny)
		sp.SleepFor(20 * sim.Millisecond)
		ch.Close(sp)
	})
	reader.Launch()
	sup.Start()
	sup.StopAt(20 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("reader never unblocked")
	}
	if readOK {
		t.Fatal("read from an orphaned dead peer must fail")
	}
	if _, ok := sup.FirstRecord("orphan", 0); !ok {
		t.Fatal("no orphan record")
	}
}
