package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
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
// Shards=1 degenerates to a one-kernel group that still runs the full
// workload, and a multi-shard build promises one cube hop (HopFixed)
// between any two shards.
func TestBuildShardedShardEdges(t *testing.T) {
	sh, err := BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 1 {
		t.Fatalf("shards=1 built %d shards", sh.Shards())
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
	if got := sh4.Group.Lookahead(); got != sh4.Costs.HopFixed {
		t.Fatalf("4-shard lookahead = %v, want HopFixed (%v)", got, sh4.Costs.HopFixed)
	}
}

// mcastDelivery is one multicast copy arriving: when, where, and its
// tag.
type mcastDelivery struct {
	at  sim.Time
	dst topo.EndpointID
	tag string
}

// multicastAll has endpoint 0 multicast 512 B to every other endpoint,
// owner(e) being the System that runs endpoint e, and returns the
// deliveries sorted by (time, destination). Each System logs only the
// deliveries to its own endpoints, so the logs are race-free. Every
// copy's completion notice must reach the sender.
func multicastAll(t *testing.T, systems []*System, owner func(topo.EndpointID) int, run func() error) []mcastDelivery {
	t.Helper()
	n := systems[0].Topo.Endpoints()
	logs := make([][]mcastDelivery, len(systems))
	dsts := make([]topo.EndpointID, 0, n-1)
	for e := 0; e < n; e++ {
		ep := topo.EndpointID(e)
		if e > 0 {
			dsts = append(dsts, ep)
		}
		i := owner(ep)
		sys := systems[i]
		sys.IC.SetDeliver(ep, func(d *hpc.Delivery) {
			logs[i] = append(logs[i], mcastDelivery{at: sys.K.Now(), dst: d.Msg.Dst, tag: d.Msg.Tag})
			d.Release()
		})
	}
	src := systems[owner(0)]
	notices := 0
	src.K.Spawn("multicast", func(p *sim.Proc) {
		if err := src.IC.SendMulticast(p, 0, dsts, 512, nil, "mc", func(topo.EndpointID, *hpc.Message) { notices++ }); err != nil {
			t.Error(err)
		}
	})
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if notices != len(dsts) {
		t.Fatalf("the sender got %d completion notices, want %d", notices, len(dsts))
	}
	var all []mcastDelivery
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].at != all[b].at {
			return all[a].at < all[b].at
		}
		return all[a].dst < all[b].dst
	})
	return all
}

// TestShardedMulticastMatchesSerial: a multicast from endpoint 0 to the
// 63 others of a 16-cluster pool, whose copies' completion notices go
// home to endpoint 0's shard from clusters up to four cube hops away,
// delivers every copy at the serial run's instant at every split.
func TestShardedMulticastMatchesSerial(t *testing.T) {
	cfg := Config{Hosts: 1, Nodes: 63, Seed: 1}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := multicastAll(t, []*System{sys}, func(topo.EndpointID) int { return 0 }, sys.Run)
	if len(want) != 63 {
		t.Fatalf("serial run delivered %d copies, want 63", len(want))
	}
	for _, shards := range []int{2, 4, 8, 16} {
		c := cfg
		c.Shards = shards
		sh, err := BuildSharded(c)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Shards() != shards {
			t.Fatalf("want %d shards, built %d", shards, sh.Shards())
		}
		got := multicastAll(t, sh.Sys, func(e topo.EndpointID) int { return sh.Part.OfEndpoint(sh.Topo, e) }, sh.Run)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d copies delivered, serial %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: delivery %d = %+v, serial %+v", shards, i, got[i], want[i])
			}
		}
	}
}
