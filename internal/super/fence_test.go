package super_test

import (
	"fmt"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/super"
	"hpcvorx/internal/verify"
)

// zombieOutcome is what a partition-isolated-writer run leaves behind.
type zombieOutcome struct {
	chk       *verify.Checker
	sup       *super.Supervisor
	sys       *core.System
	final     []string
	fenced    int // frames refused below a fence floor, all machines
	selfFence int // machines that rebooted off a fence note
}

// runZombieScenario is the incarnation-fencing scenario: a supervised
// writer on node3 (cluster 1) streams to a reader on node7 (cluster
// 2); cluster 1 is cut out of the fabric long enough for the majority
// to confirm the writer dead and migrate it, then the partition heals
// and the old incarnation — a zombie, still live and retransmitting —
// reappears. With fence=false that zombie's frames are accepted
// alongside the migrated incarnation's; with fence=true they are
// structurally refused and the zombie reboots above the floor.
func runZombieScenario(t *testing.T, fence bool) zombieOutcome {
	t.Helper()
	const (
		n    = 30
		pace = 300 * sim.Microsecond
	)
	cfg := super.Config{
		HeartbeatEvery:  500 * sim.Microsecond,
		ConfirmAfter:    2 * sim.Millisecond,
		CheckpointEvery: 1 * sim.Millisecond,
		Fence:           fence,
	}
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 15, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	chk := verify.Attach(sys)
	res := resmgr.NewVORX(sys.K, 15)
	if _, err := res.AllocateWhere("app", 2, func(id resmgr.NodeID) bool {
		return id == 3 || id == 7
	}); err != nil {
		t.Fatal(err)
	}
	sup := super.New(sys, sys.Host(0), res, cfg)
	sup.SetVerifier(chk)
	eng := fault.New(sys.K, 16)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false)
	// Cut 3ms..8ms: long enough for confirm (5ms) and the restart
	// (6ms) to happen while the old writer is still alive behind the
	// cut — the double-active hazard by construction.
	if err := eng.Apply([]fault.Op{
		{At: 3 * sim.Millisecond, Kind: "partition", Args: []string{"1"}},
		{At: 8 * sim.Millisecond, Kind: "heal"},
	}); err != nil {
		t.Fatal(err)
	}

	var final []string
	writer := sup.NewTask("writer", sys.Node(3), 0, nil)
	reader := sup.NewTask("reader", sys.Node(7), 0, nil)
	writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ps := restorePipeState("pipe", inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			writer.Attach(ch)
		}
		writer.SetCheckpointer(ps)
		for ps.written < n {
			if err := ch.Write(sp, 128, fmt.Sprintf("m%d", ps.written)); err != nil {
				return // the zombie's end dies with its machine
			}
			ps.written++
			sp.SleepFor(pace)
		}
	})
	reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
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
				return
			}
			ps.log = append(ps.log, m.Payload.(string))
			ps.read++
		}
		final = ps.log
	})
	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(60 * sim.Millisecond)
	// An unfenced zombie retransmits its unacked write forever, so the
	// run never quiesces on its own; give it a hard horizon.
	sys.RunFor(60 * sim.Millisecond)
	out := zombieOutcome{chk: chk, sup: sup, sys: sys, final: final}
	for _, m := range sys.Machines() {
		out.fenced += m.IF.FencedDrops
		out.selfFence += m.IF.SelfFences
	}
	return out
}

// TestUnfencedZombieViolatesIncarnationInvariant is the regression
// half: on the old silence-confirm path (fence off) the healed zombie
// writer keeps speaking for an identity the supervisor already
// migrated — two active incarnations of one task — and the invariant
// checker catches its frames below the migration floor.
func TestUnfencedZombieViolatesIncarnationInvariant(t *testing.T) {
	out := runZombieScenario(t, false)
	if out.sup.Restarts == 0 {
		t.Fatal("scenario broken: the writer was never migrated")
	}
	if out.fenced != 0 {
		t.Fatalf("fence off but %d frames were refused", out.fenced)
	}
	stale := 0
	for _, v := range out.chk.Violations() {
		if v.Rule == "stale-incarnation" {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("zombie frames were all accepted silently; violations = %v", out.chk.Violations())
	}
}

// TestFencedZombieIsRefusedAndReboots is the fencing half: same
// scenario, fence on. The zombie's post-heal frames are refused at
// every receiving interface, the refusal notes make it reboot above
// the floor, and the run is invariant-clean with an exactly-once log.
func TestFencedZombieIsRefusedAndReboots(t *testing.T) {
	out := runZombieScenario(t, true)
	if out.sup.Restarts == 0 {
		t.Fatal("scenario broken: the writer was never migrated")
	}
	if out.sup.FencesSent == 0 {
		t.Fatal("confirm broadcast no fence notes")
	}
	if out.fenced == 0 {
		t.Fatal("no zombie frame was refused")
	}
	if out.selfFence == 0 {
		t.Fatal("the zombie never rebooted off a refusal note")
	}
	if inc := out.sys.Node(3).Kern.Incarnation(); inc < 2 {
		t.Fatalf("zombie machine still at incarnation %d", inc)
	}
	if got, want := strings.Join(out.final, ","), strings.Join(wantStream(30), ","); got != want {
		t.Fatalf("final log not exactly-once:\n got %s\nwant %s", got, want)
	}
	if !out.chk.Ok() {
		t.Fatalf("violations under fencing: %v", out.chk.Violations())
	}
}

// TestMigrationWhilePeerSuspected is the double-failure corner: the
// reader's machine crashes for real while the writer's cluster is
// briefly partitioned — long enough to suspect the writer, too short
// to confirm it. The reader's migration and rebind therefore happen
// against a writer the supervisor does not currently trust; the
// writer's retained/pending replay must still deliver exactly once,
// and the writer's suspicion must clear on its returning heartbeats.
func TestMigrationWhilePeerSuspected(t *testing.T) {
	const (
		n    = 30
		pace = 300 * sim.Microsecond
	)
	cfg := super.Config{
		HeartbeatEvery:  500 * sim.Microsecond,
		ConfirmAfter:    2 * sim.Millisecond,
		CheckpointEvery: 1 * sim.Millisecond,
		Fence:           true,
	}
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 15, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	chk := verify.Attach(sys)
	res := resmgr.NewVORX(sys.K, 15)
	if _, err := res.AllocateWhere("app", 2, func(id resmgr.NodeID) bool {
		return id == 3 || id == 7
	}); err != nil {
		t.Fatal(err)
	}
	sup := super.New(sys, sys.Host(0), res, cfg)
	sup.SetVerifier(chk)
	eng := fault.New(sys.K, 16)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false)
	// Reader dies for real; 300µs later the writer's cluster drops off
	// the fabric for 1.4ms — past the 2H suspect mark, short of ConfirmAfter.
	// The reader's confirm (4.5ms) and restart (5.5ms) land just as
	// the writer comes back under suspicion.
	if err := eng.Apply([]fault.Op{
		{At: 2500 * sim.Microsecond, Kind: "crash", Args: []string{"node7"}},
		{At: 2800 * sim.Microsecond, Kind: "partition", Args: []string{"1"}},
		{At: 4200 * sim.Microsecond, Kind: "heal"},
	}); err != nil {
		t.Fatal(err)
	}

	var final []string
	writer := sup.NewTask("writer", sys.Node(3), 0, nil)
	reader := sup.NewTask("reader", sys.Node(7), 0, nil)
	writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		ps := restorePipeState("pipe", inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			writer.Attach(ch)
		}
		writer.SetCheckpointer(ps)
		for ps.written < n {
			if err := ch.Write(sp, 128, fmt.Sprintf("m%d", ps.written)); err != nil {
				t.Errorf("writer gen %d: %v", inc.Gen, err)
				return
			}
			ps.written++
			sp.SleepFor(pace)
		}
	})
	reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
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
	})
	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(60 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	if _, ok := sup.FirstRecord("suspect", 0); !ok {
		t.Fatal("the partitioned writer was never suspected")
	}
	if _, ok := sup.FirstRecord("clear", 0); !ok {
		t.Fatal("the writer's suspicion never cleared")
	}
	if sup.Restarts != 1 {
		sup.Report(testWriter{t})
		t.Fatalf("restarts = %d, want exactly the reader's", sup.Restarts)
	}
	if sup.Rebinds == 0 {
		t.Fatal("the writer's end was never rebound to the reader's new incarnation")
	}
	if got, want := strings.Join(final, ","), strings.Join(wantStream(n), ","); got != want {
		t.Fatalf("final log not exactly-once:\n got %s\nwant %s", got, want)
	}
	if !chk.Ok() {
		t.Fatalf("violations: %v", chk.Violations())
	}
}
