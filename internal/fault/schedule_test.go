package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// boundEngine builds a 4-cluster system (2 hosts + 14 nodes) and an
// engine bound to it and to a DFS service, so Apply's target
// validation is live.
func boundEngine(t *testing.T) *fault.Engine {
	t.Helper()
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	eng.BindDFS(dfs.New(sys, sys.Hosts(), 2))
	return eng
}

// TestScheduleValidation is the DSL hardening table: every rejection
// class gets a minimal schedule and a distinctive error fragment, and
// the valid schedules prove the rejections aren't over-broad.
func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name     string
		schedule string
		parseErr string // "" = must parse
		applyErr string // "" = must apply
	}{
		{name: "valid classic storm", schedule: stormSchedule},
		{name: "valid partition lifecycle", schedule: `
			1ms partition 0,1|2,3
			4ms heal
			5ms partition 3
			7ms heal`},
		{name: "valid gray lifecycle", schedule: `
			1ms gray node5 4.0 0.25
			3ms ungray node5
			4ms gray node5 2.0 0
			6ms ungray node5`},
		{name: "valid crash after restart", schedule: `
			1ms crash node2
			3ms restart node2
			5ms crash node2`},
		{name: "valid restart without crash", schedule: `2ms restart node3`},
		{name: "valid ungray without gray", schedule: `2ms ungray host1`},
		{name: "valid degrade then restore", schedule: `
			1ms degrade 0 1 1e6
			3ms degrade 0 1 1`},

		{name: "zero time", schedule: `0ms crash node1`, parseErr: "time must be positive"},
		{name: "negative time", schedule: `-1ms crash node1`, parseErr: "bad duration"},
		{name: "missing unit", schedule: `5 crash node1`, parseErr: "needs a unit"},
		{name: "unknown op", schedule: `1ms explode node1`, applyErr: `unknown op "explode"`},
		{name: "link-down extra arg", schedule: `1ms link-down 0 1 junk`, applyErr: "want: link-down <a> <b>"},
		{name: "link-up extra arg", schedule: `3ms link-up 0 1 7`, applyErr: "want: link-up <a> <b>"},
		{name: "dfs-down extra arg", schedule: `1ms dfs-down 0 extra`, applyErr: "want: dfs-down <host>"},

		{name: "unknown node", schedule: `1ms crash node99`, applyErr: "no node99 in this system"},
		{name: "unknown host", schedule: `1ms crash host5`, applyErr: "no host5 in this system"},
		{name: "bad machine class", schedule: `1ms crash cpu3`, applyErr: "bad machine"},
		{name: "unknown cluster link", schedule: `1ms link-down 0 9`, applyErr: "no cluster 9"},
		{name: "negative cluster link", schedule: `1ms link-down 0 -3`, applyErr: "no cluster -3"},
		{name: "degrade negative cluster", schedule: `1ms degrade -1 0 2`, applyErr: "no cluster -1"},
		{name: "non-neighbour link", schedule: `1ms link-down 0 3`, applyErr: "no cube link between clusters 0 and 3"},
		{name: "gray unknown node", schedule: `1ms gray node99 2.0 0.1`, applyErr: "no node99 in this system"},
		{name: "gray slowdown below 1", schedule: `1ms gray node5 0.5 0.1`, applyErr: "bad slowdown"},
		{name: "gray drop out of range", schedule: `1ms gray node5 2.0 1.0`, applyErr: "bad drop probability"},
		{name: "gray NaN slowdown", schedule: `1ms gray node5 NaN 0.1`, applyErr: "(gray): bad slowdown"},
		{name: "gray Inf slowdown", schedule: `1ms gray node5 Inf 0.1`, applyErr: "(gray): bad slowdown"},
		{name: "gray overflowing slowdown", schedule: `1ms gray node5 1e300 0.1`, applyErr: "(gray): bad slowdown"},
		{name: "gray NaN drop", schedule: `1ms gray node3 2.0 NaN`, applyErr: "(gray): bad drop probability"},
		{name: "degrade NaN factor", schedule: `1ms degrade 0 1 NaN`, applyErr: "(degrade): bad factor"},
		{name: "degrade Inf factor", schedule: `1ms degrade 0 1 Inf`, applyErr: "(degrade): bad factor"},
		{name: "degrade overflowing factor", schedule: `1ms degrade 0 1 1e300`, applyErr: "(degrade): bad factor"},
		{name: "degrade factor below 1", schedule: `1ms degrade 0 1 0.5`, applyErr: "(degrade): bad factor"},

		{name: "double link-down", schedule: `
			1ms link-down 0 1
			2ms link-down 0 1`, applyErr: "already down"},
		{name: "double crash", schedule: `
			1ms crash node2
			2ms crash node2`, applyErr: "already crashed"},
		{name: "double crash, two spellings", schedule: `
			1ms crash node2
			2ms crash node02`, applyErr: "node2 is already crashed"},
		{name: "double gray", schedule: `
			1ms gray node5 2.0 0
			2ms gray node5 4.0 0`, applyErr: "already gray"},
		{name: "double gray, two spellings", schedule: `
			1ms gray node5 2.0 0
			2ms gray node005 4.0 0`, applyErr: "node5 is already gray"},
		{name: "double link-down, reversed pair", schedule: `
			1ms link-down 0 1
			2ms link-down 1 0`, applyErr: "link 0-1 is already down"},
		{name: "same-instant same-target", schedule: `
			1ms crash node2
			1ms restart node2`, applyErr: "ambiguous order"},

		{name: "nested partition", schedule: `
			1ms partition 0,1|2,3
			2ms partition 0|1,2,3`, applyErr: "already active"},
		{name: "heal without partition", schedule: `2ms heal`, applyErr: "no active partition"},
		{name: "link op during partition", schedule: `
			1ms partition 0,1|2,3
			2ms link-down 0 1
			4ms heal`, applyErr: "partition"},
		{name: "partition of everything in one group", schedule: `1ms partition 0,1,2,3`, applyErr: "only one group"},
		{name: "partition duplicate cluster", schedule: `1ms partition 0,1|1,2`, applyErr: "listed twice"},
		{name: "partition empty group", schedule: `1ms partition 0,1|`, applyErr: "empty group"},
		{name: "partition unknown cluster", schedule: `1ms partition 7`, applyErr: "no cluster 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops, err := fault.ParseSchedule(strings.NewReader(tc.schedule))
			if tc.parseErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.parseErr) {
					t.Fatalf("parse error = %v, want fragment %q", err, tc.parseErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = boundEngine(t).Apply(ops)
			if tc.applyErr == "" {
				if err != nil {
					t.Fatalf("apply: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.applyErr) {
				t.Fatalf("apply error = %v, want fragment %q", err, tc.applyErr)
			}
		})
	}
}

// TestScheduleRejectionIsAtomic: a schedule that fails, whether on an
// op's arguments or on the timeline, must arm nothing — the kernel
// schedules no event, and the engine's record log stays empty after
// the clock runs past every op's time.
func TestScheduleRejectionIsAtomic(t *testing.T) {
	for _, tc := range []struct{ name, schedule, applyErr string }{
		{"timeline error", `
			1ms link-down 0 1
			2ms crash node2
			3ms crash node2`, "already crashed"},
		{"argument error", `
			1ms link-down 0 1
			2ms crash node99`, "no node99 in this system"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			eng := fault.New(sys.K, 1)
			eng.Bind(sys)
			ops, err := fault.ParseSchedule(strings.NewReader(tc.schedule))
			if err != nil {
				t.Fatal(err)
			}
			before := sys.K.Scheduled()
			if err := eng.Apply(ops); err == nil || !strings.Contains(err.Error(), tc.applyErr) {
				t.Fatalf("apply error = %v, want fragment %q", err, tc.applyErr)
			}
			if n := sys.K.Scheduled() - before; n != 0 {
				t.Errorf("rejected schedule scheduled %d events", n)
			}
			sys.K.At(sim.Time(10*sim.Millisecond), func() {})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if n := len(eng.Records()); n != 0 {
				t.Fatalf("rejected schedule still armed %d ops: %v", n, eng.Records())
			}
		})
	}
}

// TestApplyNeedsBoundSystem: an engine with no system bound rejects a
// schedule instead of arming ops that would fault when they fire.
func TestApplyNeedsBoundSystem(t *testing.T) {
	k := sim.NewKernel(1)
	eng := fault.New(k, 1)
	err := eng.Apply([]fault.Op{{At: sim.Millisecond, Kind: "crash", Args: []string{"node1"}}})
	if err == nil || !strings.Contains(err.Error(), "no system bound") {
		t.Fatalf("apply error = %v, want an unbound-engine rejection", err)
	}
	if n := k.Scheduled(); n != 0 {
		t.Fatalf("unbound engine scheduled %d events", n)
	}
}

// TestPartitionCutsAndHeals: during the cut, cross-group links are
// down and same-group routing survives; after the heal, exactly the
// partition's cut-set is restored.
func TestPartitionCutsAndHeals(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	ops, err := fault.ParseSchedule(strings.NewReader(`
		1ms partition 1
		3ms heal`))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(ops); err != nil {
		t.Fatal(err)
	}
	sys.K.At(sim.Time(2*sim.Millisecond), func() {
		if got := sys.IC.DownCubeLinks(); got != 4 {
			t.Errorf("mid-cut down links = %d, want 4 (cluster 1's 0-1 and 1-3, both directions)", got)
		}
	})
	sys.K.At(sim.Time(4*sim.Millisecond), func() {
		if got := sys.IC.DownCubeLinks(); got != 0 {
			t.Errorf("post-heal down links = %d, want 0", got)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	recs := eng.Records()
	if len(recs) != 2 || recs[0].Kind != "partition" || recs[1].Kind != "heal" {
		t.Fatalf("records = %v", recs)
	}
}

// runPairTraffic streams 16 messages from node1 to node8 and logs the
// outcome plus the gray counters into b.
func runPairTraffic(t *testing.T, sys *core.System, b *strings.Builder) {
	t.Helper()
	const msgs = 16
	recv := 0
	wm, rm := sys.Node(1), sys.Node(8)
	sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
		ch := wm.Chans.Open(sp, "gray", objmgr.OpenAny)
		for i := 0; i < msgs; i++ {
			if err := ch.Write(sp, 256, i); err != nil {
				return
			}
			sp.SleepFor(300 * sim.Microsecond)
		}
	})
	sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
		ch := rm.Chans.Open(sp, "gray", objmgr.OpenAny)
		for i := 0; i < msgs; i++ {
			if _, ok := ch.Read(sp); !ok {
				return
			}
			recv++
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	retrans := 0
	for _, m := range sys.Machines() {
		retrans += m.Chans.TimeoutRetransmits
	}
	fmt.Fprintf(b, "recv=%d retrans=%d dropped=%d quiesce=%v\n",
		recv, retrans, sys.Node(8).IF.GrayDropped, sys.K.Now())
}

// TestGrayDeterminism: the seeded drop pattern is part of the run's
// identity — same seed, same drops; different seed, different run.
func TestGrayDeterminism(t *testing.T) {
	run := func(seed int64) string {
		sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng := fault.New(sys.K, seed)
		eng.Bind(sys)
		ops, err := fault.ParseSchedule(strings.NewReader(`
			1ms gray node8 4.0 0.35
			8ms ungray node8`))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(ops); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		runPairTraffic(t, sys, &b)
		eng.Report(&b)
		return b.String()
	}
	a, b := run(3), run(3)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n----\n%s", a, b)
	}
	if c := run(4); c == a {
		t.Fatal("different gray seeds produced identical runs")
	}
}

// TestParseDurationRejectsOverflow: values that do not fit an int64 of
// nanoseconds, and non-finite ones, are errors naming the input — not
// a wrapped negative duration with a nil error.
func TestParseDurationRejectsOverflow(t *testing.T) {
	for _, in := range []string{"infs", "NaNms", "1e300s", "9999999999s", "+Infus"} {
		d, err := fault.ParseDuration(in)
		if err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("ParseDuration(%q) = %v, %v; want an error naming the input", in, d, err)
		}
	}
	if d, err := fault.ParseDuration("9223372036s"); err != nil || d != 9223372036*sim.Second {
		t.Errorf("ParseDuration(9223372036s) = %v, %v", d, err)
	}
}

// scheduleDocExample is ParseSchedule's documented example.
const scheduleDocExample = `500us link-down 0 1        # fail cube link between clusters 0 and 1
2ms   link-up 0 1
1ms   degrade 0 2 4.0      # 4x slower wire on cube link 0-2
2ms   crash node3
5ms   restart node3
2ms   crash host0
3ms   dfs-down 1           # DFS server outage (host machine alive)
4ms   dfs-up 1
2ms   partition 0,1|2,3    # cut topology into reachability groups
6ms   heal                 # merge the partition back
1ms   gray node5 4.0 0.25  # slow ISR 4x, drop 25% of arrivals
7ms   ungray node5
3ms   rebalance t4 node9   # move vchannel t4 to a lane on node9
`

// FuzzParseSchedule: no input panics, every op a schedule accepts
// happens at a positive time, and ParseDuration, tried on every field
// of the input, either fails or returns a non-negative duration.
func FuzzParseSchedule(f *testing.F) {
	f.Add(scheduleDocExample)
	for _, line := range strings.Split(scheduleDocExample, "\n") {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, schedule string) {
		ops, err := fault.ParseSchedule(strings.NewReader(schedule))
		if err == nil {
			for _, op := range ops {
				if op.At <= 0 {
					t.Fatalf("accepted op %+v at a non-positive time", op)
				}
			}
		}
		for _, field := range strings.Fields(schedule) {
			if d, err := fault.ParseDuration(field); err == nil && d < 0 {
				t.Fatalf("ParseDuration(%q) = %v with no error", field, d)
			}
		}
	})
}
