package cdb_test

import (
	"encoding/json"
	"strings"
	"testing"

	"hpcvorx/internal/cdb"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
)

// deadlockedSystem builds the classic bug of §6.1: two processes each
// waiting for input from the other.
func deadlockedSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Node(0), "p0", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "dead", objmgr.OpenAny)
		ch.Read(sp) // waits for p1, who also reads first
	})
	sys.Spawn(sys.Node(1), "p1", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "dead", objmgr.OpenAny)
		ch.Read(sp)
	})
	if err := sys.Run(); err == nil {
		t.Fatal("expected a deadlock")
	}
	return sys
}

func TestSnapshotShowsBlockedReaders(t *testing.T) {
	sys := deadlockedSystem(t)
	defer sys.Shutdown()
	snap := cdb.Capture(sys)
	if len(snap.Ends) != 2 {
		t.Fatalf("ends = %d", len(snap.Ends))
	}
	for _, e := range snap.Ends {
		if !e.ReaderBlocked {
			t.Errorf("end %+v should be blocked reading", e)
		}
	}
	if len(snap.Blocked) != 2 {
		t.Fatalf("blocked procs = %+v", snap.Blocked)
	}
}

func TestWaitCycleDetection(t *testing.T) {
	sys := deadlockedSystem(t)
	defer sys.Shutdown()
	snap := cdb.Capture(sys)
	cycles := snap.WaitCycles()
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	if len(cycles[0]) != 2 {
		t.Fatalf("cycle = %v, want both endpoints", cycles[0])
	}
}

func TestFormatIncludesCycleAndStates(t *testing.T) {
	sys := deadlockedSystem(t)
	defer sys.Shutdown()
	out := cdb.Capture(sys).String()
	for _, want := range []string{"dead", "blocked-read", "waits-for cycle", "chan-read dead"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFilters(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		a := sys.Node(0).Chans.Open(sp, "busy-one", objmgr.OpenAny)
		a.Write(sp, 10, nil)
		b := sys.Node(0).Chans.Open(sp, "quiet-two", objmgr.OpenAny)
		b.Write(sp, 10, nil)
	})
	sys.Spawn(sys.Node(1), "r1", 0, func(sp *kern.Subprocess) {
		a := sys.Node(1).Chans.Open(sp, "busy-one", objmgr.OpenAny)
		a.Read(sp)
		a.Read(sp) // blocks forever
	})
	sys.Spawn(sys.Node(2), "r2", 0, func(sp *kern.Subprocess) {
		b := sys.Node(2).Chans.Open(sp, "quiet-two", objmgr.OpenAny)
		b.Read(sp)
	})
	_ = sys.Run() // r1 deadlocks by design
	defer sys.Shutdown()

	snap := cdb.Capture(sys)
	if got := len(snap.Select(cdb.ByName("busy")).Ends); got != 2 {
		t.Errorf("ByName(busy) = %d ends, want 2", got)
	}
	blocked := snap.Select(cdb.BlockedOnly())
	if len(blocked.Ends) != 1 || blocked.Ends[0].Name != "busy-one" {
		t.Errorf("BlockedOnly = %+v", blocked.Ends)
	}
	if got := len(snap.Select(cdb.ByName("busy"), cdb.BlockedOnly()).Ends); got != 1 {
		t.Errorf("combined filters = %d ends, want 1", got)
	}
}

func TestMessageCountsInBothDirections(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Node(0), "a", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "duplex", objmgr.OpenAny)
		ch.Write(sp, 10, nil)
		ch.Write(sp, 10, nil)
		ch.Write(sp, 10, nil)
		ch.Read(sp)
	})
	sys.Spawn(sys.Node(1), "b", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "duplex", objmgr.OpenAny)
		for i := 0; i < 3; i++ {
			ch.Read(sp)
		}
		ch.Write(sp, 10, nil)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	snap := cdb.Capture(sys)
	var e0, e1 *cdb.End
	for i := range snap.Ends {
		switch snap.Ends[i].Machine {
		case "node0":
			e0 = &snap.Ends[i]
		case "node1":
			e1 = &snap.Ends[i]
		}
	}
	if e0 == nil || e1 == nil {
		t.Fatalf("missing ends: %+v", snap.Ends)
	}
	if e0.Sent != 3 || e0.Received != 1 || e1.Sent != 1 || e1.Received != 3 {
		t.Fatalf("counts: node0 %d/%d node1 %d/%d", e0.Sent, e0.Received, e1.Sent, e1.Received)
	}
}

func TestNoCyclesOnHealthySystem(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "ok", objmgr.OpenAny)
		ch.Write(sp, 10, nil)
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "ok", objmgr.OpenAny)
		ch.Read(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if cycles := cdb.Capture(sys).WaitCycles(); len(cycles) != 0 {
		t.Fatalf("cycles on healthy system: %v", cycles)
	}
}

func TestJSONOutput(t *testing.T) {
	sys := deadlockedSystem(t)
	defer sys.Shutdown()
	data, err := cdb.Capture(sys).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if _, ok := parsed["ends"].([]any); !ok {
		t.Fatalf("missing ends: %s", data)
	}
	if _, ok := parsed["wait_cycles"]; !ok {
		t.Fatalf("missing wait_cycles on a deadlocked app: %s", data)
	}
	if _, ok := parsed["blocked"]; !ok {
		t.Fatalf("missing blocked: %s", data)
	}
}
