package core

import (
	"fmt"
	"strings"
	"testing"

	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// The sharded build must be observably identical to the serial one:
// same per-pair delivery counts, same per-pair completion instants in
// virtual time, same retransmit totals. The workload below exercises
// the full stack — channel opens rendezvousing through hashed object
// managers, paced writes crossing cluster (and shard) boundaries,
// stop-and-wait acks flowing back — with tie-free staggered starts and
// distinct message sizes per pair.

const (
	stackNodes = 15 // 1 host + 15 nodes -> 4 clusters of 4
	stackPairs = 7
	stackMsgs  = 6
)

type pairOutcome struct {
	recv int
	done sim.Time
}

// chanSys is the surface shared by *System and *Sharded that the
// workload needs.
type chanSys interface {
	Node(i int) *Machine
	Spawn(m *Machine, name string, prio int, body func(sp *kern.Subprocess)) *kern.Subprocess
	Run() error
	Machines() []*Machine
}

// stackTraffic spawns writer/reader pairs spanning clusters. Readers
// on different shards write disjoint slice entries, so the recording
// is race-free under the group scheduler.
func stackTraffic(s chanSys, out []pairOutcome) {
	for pi := 0; pi < stackPairs; pi++ {
		pi := pi
		name := fmt.Sprintf("pair%d", pi)
		wm, rm := s.Node(pi), s.Node(pi+stackPairs)
		size := 192 + 16*pi
		s.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(sim.Duration(1+17*pi) * sim.Microsecond)
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < stackMsgs; i++ {
				if err := ch.Write(sp, size, fmt.Sprintf("p%d.%d", pi, i)); err != nil {
					return
				}
				sp.SleepFor(sim.Duration(310+7*pi) * sim.Microsecond)
			}
		})
		s.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(sim.Duration(9+17*pi) * sim.Microsecond)
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < stackMsgs; i++ {
				if _, ok := ch.Read(sp); !ok {
					return
				}
				out[pi].recv++
				out[pi].done = rm.Kern.Kernel().Now()
			}
		})
	}
}

// stackDigest renders the run's observable outcome canonically.
func stackDigest(s chanSys, out []pairOutcome) string {
	var b strings.Builder
	for pi, o := range out {
		fmt.Fprintf(&b, "pair%d recv=%d done=%d\n", pi, o.recv, int64(o.done))
	}
	retr := 0
	for _, m := range s.Machines() {
		retr += m.Chans.TimeoutRetransmits
	}
	fmt.Fprintf(&b, "retrans=%d\n", retr)
	return b.String()
}

func TestBuildShardedMatchesSerial(t *testing.T) {
	// Build ignores Shards: the serial reference is one kernel carrying
	// every machine, even with a split configured, and perfbench builds
	// its serial baseline for a sharded workload exactly this way.
	cfg := Config{Hosts: 1, Nodes: stackNodes, Seed: 11, Shards: 4}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.K.Group() != nil {
		t.Fatal("Build put its kernel in a sim.Group")
	}
	for _, m := range sys.Machines() {
		if m.Kern.Kernel() != sys.K {
			t.Fatalf("%s runs on another kernel than the serial System's", m.Name())
		}
	}
	if got := len(sys.Machines()); got != 1+stackNodes {
		t.Fatalf("serial System holds %d machines, want %d", got, 1+stackNodes)
	}
	serialOut := make([]pairOutcome, stackPairs)
	stackTraffic(sys, serialOut)
	if err := sys.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	want := stackDigest(sys, serialOut)
	for pi, o := range serialOut {
		if o.recv != stackMsgs {
			t.Fatalf("serial pair %d delivered %d/%d", pi, o.recv, stackMsgs)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		c := cfg
		c.Shards = shards
		sh, err := BuildSharded(c)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && sh.Shards() != shards {
			t.Fatalf("want %d shards, built %d", shards, sh.Shards())
		}
		out := make([]pairOutcome, stackPairs)
		stackTraffic(sh, out)
		if err := sh.Run(); err != nil {
			t.Fatalf("shards=%d run: %v", shards, err)
		}
		got := stackDigest(sh, out)
		if got != want {
			t.Fatalf("shards=%d digest diverged from serial:\n--- serial ---\n%s--- shards=%d ---\n%s", shards, want, shards, got)
		}
		if shards > 1 {
			if sh.Group.CrossPosts() == 0 {
				t.Fatalf("shards=%d: no cross-shard posts despite cross-cluster traffic", shards)
			}
			if st := sh.FabricStats(); st.HandoffsOut == 0 || st.HandoffsOut != st.HandoffsIn {
				t.Fatalf("shards=%d: handoffs out=%d in=%d", shards, st.HandoffsOut, st.HandoffsIn)
			}
		}
	}
}

// TestBuildShardedDefaultsToClusters checks the Shards=0 defaulting
// rule and the clamp.
func TestBuildShardedDefaultsToClusters(t *testing.T) {
	sh, err := BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != sh.Topo.Clusters() {
		t.Fatalf("default shards = %d, want one per cluster (%d)", sh.Shards(), sh.Topo.Clusters())
	}
	sh, err = BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 1, Shards: 99})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != sh.Topo.Clusters() {
		t.Fatalf("shards=99 clamped to %d, want %d", sh.Shards(), sh.Topo.Clusters())
	}
}

// TestBuildShardedShardEdges pins the remaining Config.Shards edges:
// Shards=1 degenerates to a one-kernel group with zero effective
// lookahead that still runs the full workload, and a multi-shard build
// carries the route-aware lookahead matrix (HopFixed times the
// minimum cube distance between each shard pair, zero diagonal).
func TestBuildShardedShardEdges(t *testing.T) {
	sh, err := BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 1 {
		t.Fatalf("shards=1 built %d shards", sh.Shards())
	}
	if la := sh.Group.PairLookahead(0, 0); la != 0 {
		t.Fatalf("one-shard group lookahead = %v, want 0", la)
	}
	out := make([]pairOutcome, stackPairs)
	stackTraffic(sh, out)
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	for pi, o := range out {
		if o.recv != stackMsgs {
			t.Fatalf("shards=1 pair %d delivered %d/%d", pi, o.recv, stackMsgs)
		}
	}

	sh4, err := BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	hops := sh4.Part.RouteHops()
	for s := 0; s < sh4.Shards(); s++ {
		for d := 0; d < sh4.Shards(); d++ {
			want := sh4.Costs.HopFixed * sim.Duration(hops[s][d])
			if got := sh4.Group.PairLookahead(s, d); got != want {
				t.Fatalf("lookahead[%d][%d] = %v, want %v (%d hops)", s, d, got, want, hops[s][d])
			}
		}
	}
}
