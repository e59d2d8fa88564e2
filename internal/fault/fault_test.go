package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/flowctl"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
)

// stormSchedule exercises every op kind the engine supports except
// DFS (covered separately): link failure and repair, degraded
// bandwidth, node crash and restart.
const stormSchedule = `
# fault storm
500us link-down 0 2
3ms   link-up 0 2
1ms   degrade 0 1 4.0
2ms   crash node8
9ms   restart node8
`

// runStorm builds a 4-cluster system, applies the storm schedule, runs
// cross-cluster channel traffic through it, and returns a full trace
// of what happened.
func runStorm(t *testing.T, seed int64) string {
	t.Helper()
	// 2 hosts + 14 nodes = 16 endpoints = 4 clusters of 4.
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := fault.New(sys.K, seed)
	eng.Bind(sys)
	ops, err := fault.ParseSchedule(strings.NewReader(stormSchedule))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(ops); err != nil {
		t.Fatal(err)
	}
	// Writer node → reader node, all pairs crossing clusters; the
	// pair 1→8 has its reader crashed mid-storm.
	pairs := [][2]int{{0, 4}, {1, 8}, {2, 12}}
	const msgs = 16
	recv := make([]int, len(pairs))
	werrs := make([]string, len(pairs))
	for pi, pr := range pairs {
		pi, pr := pi, pr
		name := fmt.Sprintf("storm%d", pi)
		wm, rm := sys.Node(pr[0]), sys.Node(pr[1])
		sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < msgs; i++ {
				if err := ch.Write(sp, 256, i); err != nil {
					werrs[pi] = err.Error()
					return
				}
			}
		})
		sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < msgs; i++ {
				if _, ok := ch.Read(sp); !ok {
					return
				}
				recv[pi]++
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	eng.Report(&b)
	fmt.Fprintf(&b, "recv=%v werrs=%v\n", recv, werrs)
	fmt.Fprintf(&b, "ic=%+v\n", sys.IC.Stats())
	for _, m := range sys.Machines() {
		fmt.Fprintf(&b, "%s: w=%d d=%d tr=%d pd=%d\n", m.Name(),
			m.Chans.Written, m.Chans.Delivered, m.Chans.TimeoutRetransmits, m.Chans.PeerDeaths)
	}
	return b.String()
}

// TestStormDeterminism: same seed + same schedule ⇒ bit-identical
// trace, including every fault firing, recovery action, and counter.
func TestStormDeterminism(t *testing.T) {
	a := runStorm(t, 42)
	b := runStorm(t, 42)
	if a != b {
		t.Fatalf("same seed, different traces:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
	// The storm must actually have bitten: survivors delivered
	// everything, the dead pair's writer got an error.
	if !strings.Contains(a, "recv=[16 ") || !strings.Contains(a, " 16]") {
		t.Fatalf("surviving pairs must deliver all messages:\n%s", a)
	}
	if !strings.Contains(a, "peer closed") {
		t.Fatalf("writer to crashed reader must get a peer error:\n%s", a)
	}
	if !strings.Contains(a, "link-down") || !strings.Contains(a, "restart") {
		t.Fatalf("fault log incomplete:\n%s", a)
	}
}

// TestDifferentSeedsDiverge: the probabilistic S/NET model must fire
// differently under different seeds (and identically under the same
// one).
func seedTrace(t *testing.T, seed int64) string {
	t.Helper()
	k := sim.NewKernel(5)
	nw := snet.NewNetwork(k, m68k.DefaultCosts(), 2)
	eng := fault.New(k, seed)
	eng.SNETModel(nw, 0.15, 0.10)
	rel := flowctl.NewReliable(k, nw)
	rel.SetDeliver(0, func(m snet.Message) {})
	var transfers []int
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			transfers = append(transfers, rel.Send(p, nw.Station(1), 0, 300, i))
		}
	})
	k.RunFor(sim.Seconds(5))
	k.Shutdown()
	if rel.Delivered != 30 {
		t.Fatalf("delivered %d of 30 under loss model", rel.Delivered)
	}
	return fmt.Sprintf("%v %+v", transfers, nw.Stats())
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a1 := seedTrace(t, 1)
	a2 := seedTrace(t, 1)
	b := seedTrace(t, 2)
	if a1 != a2 {
		t.Fatalf("same seed diverged:\n%s\n%s", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different seeds produced identical fault firings:\n%s", a1)
	}
}

// TestCrashForceFreesProcessors: a modeled node crash (not a test
// stub) triggers the §3.1 policy — the resource manager force-frees
// the dead node's processors while the owner keeps the survivors.
func TestCrashForceFreesProcessors(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := resmgr.NewVORX(sys.K, 14)
	if _, err := res.Allocate("alice", 14); err != nil {
		t.Fatal(err)
	}
	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.CrashNodeAt(2*sim.Millisecond, 6)
	var writeErr error
	wm := sys.Node(0)
	sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
		ch := wm.Chans.Open(sp, "pipe", objmgr.OpenAny)
		for i := 0; i < 100; i++ {
			if writeErr = ch.Write(sp, 128, i); writeErr != nil {
				return
			}
		}
	})
	rm := sys.Node(6)
	sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
		ch := rm.Chans.Open(sp, "pipe", objmgr.OpenAny)
		for {
			if _, ok := ch.Read(sp); !ok {
				return
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if writeErr == nil {
		t.Fatal("writer to crashed node must get an error, not a hang")
	}
	if got := res.OwnerOf(6); got != "" {
		t.Fatalf("crashed node still owned by %q", got)
	}
	if got := res.OwnerOf(5); got != "alice" {
		t.Fatalf("surviving node lost its owner: %q", got)
	}
	if res.ForceFrees != 1 {
		t.Fatalf("ForceFrees = %d, want 1", res.ForceFrees)
	}
	var kinds []string
	for _, r := range eng.Records() {
		kinds = append(kinds, r.Kind)
	}
	want := []string{"crash", "detect", "force-free"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("records %v, want %v", kinds, want)
	}
}

// TestDFSFailoverOnHostCrash: killing the primary's host machine (a
// real crash, not the software-down flag) makes reads fail over to the
// surviving replica.
func TestDFSFailoverOnHostCrash(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(sys, sys.Hosts(), 2)
	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	eng.BindDFS(fs)
	const file = "boot.image"
	primary := fs.ReplicaHosts(file)[0]
	var readBack []byte
	var readErr error
	cm := sys.Node(0)
	client := fs.NewClient(cm)
	sys.Spawn(cm, "client", 0, func(sp *kern.Subprocess) {
		if err := client.Create(sp, file); err != nil {
			t.Error(err)
			return
		}
		if err := client.Append(sp, file, []byte("kernel+apps")); err != nil {
			t.Error(err)
			return
		}
		// Wait out the crash and its detection, then read.
		sp.SleepFor(20 * sim.Millisecond)
		readBack, readErr = client.Read(sp, file)
	})
	eng.CrashHostAt(10*sim.Millisecond, primary)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatalf("read after primary host crash: %v", readErr)
	}
	if string(readBack) != "kernel+apps" {
		t.Fatalf("failover read returned %q", readBack)
	}
}

// TestParseSchedule covers the DSL: units, comments, args, errors.
func TestParseSchedule(t *testing.T) {
	ops, err := fault.ParseSchedule(strings.NewReader(stormSchedule))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 5 {
		t.Fatalf("parsed %d ops, want 5", len(ops))
	}
	if ops[0].At != 500*sim.Microsecond || ops[0].Kind != "link-down" {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[3].Kind != "crash" || ops[3].Args[0] != "node8" {
		t.Fatalf("op3 = %+v", ops[3])
	}
	for _, bad := range []string{
		"5 link-down 0 1",  // missing unit
		"1ms link-down 0",  // missing arg
		"1ms crash cpu3",   // bad machine class
		"1ms frobnicate 1", // unknown op
		"1ms",              // op missing
	} {
		if _, perr := fault.ParseSchedule(strings.NewReader(bad)); perr == nil {
			if err := func() error {
				ops, _ := fault.ParseSchedule(strings.NewReader(bad))
				k := sim.NewKernel(1)
				e := fault.New(k, 1)
				return e.Apply(ops)
			}(); err == nil {
				t.Errorf("schedule %q must fail to parse or apply", bad)
			}
		}
	}
}
