package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// The sharded build must be observably identical to the serial one:
// same per-pair delivery counts, same per-pair completion instants in
// virtual time, same retransmit totals. The workload below exercises
// the full stack — channel opens rendezvousing through hashed object
// managers, paced writes crossing cluster (and shard) boundaries,
// acks flowing back — with tie-free staggered starts and distinct
// message sizes per pair. Writers sit on the low clusters and readers
// on the high ones, so at 2 shards every data message crosses one way.

const (
	stackNodes = 15 // 1 host + 15 nodes -> 4 clusters of 4
	stackPairs = 7
)

// stackLoad is one profile's traffic: msgs writes per pair, each of
// size(pair, write) bytes. afterWrite, when set, runs on the writer's
// machine after each write. An unstaggered load opens every pair's two
// ends at 0.
type stackLoad struct {
	comm        CommProfile
	msgs        int
	size        func(pi, i int) int
	afterWrite  func(w, r *Machine)
	unstaggered bool
}

var (
	// classicLoad's one-fragment writes stop and wait.
	classicLoad = stackLoad{msgs: 6, size: func(pi, _ int) int { return 192 + 16*pi }}
	// pipelinedLoad's 2.5–6.7 KB writes are trains of 3 to 7 fragments
	// under a write window, over K-deep ports with coalesced receive
	// interrupts.
	pipelinedLoad = stackLoad{comm: Pipelined(), msgs: 12, size: func(pi, i int) int { return 2560 + 600*pi + 50*i }}
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
func stackTraffic(s chanSys, load stackLoad, out []pairOutcome) {
	for pi := 0; pi < stackPairs; pi++ {
		pi := pi
		name := fmt.Sprintf("pair%d", pi)
		wm, rm := s.Node(pi), s.Node(pi+stackPairs)
		open := func(at int) sim.Duration {
			if load.unstaggered {
				return 0
			}
			return sim.Duration(at+17*pi) * sim.Microsecond
		}
		s.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(open(1))
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < load.msgs; i++ {
				if err := ch.Write(sp, load.size(pi, i), fmt.Sprintf("p%d.%d", pi, i)); err != nil {
					return
				}
				if load.afterWrite != nil {
					load.afterWrite(wm, rm)
				}
				sp.SleepFor(sim.Duration(310+7*pi) * sim.Microsecond)
			}
		})
		s.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(open(9))
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < load.msgs; i++ {
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
	t.Run("classic", func(t *testing.T) { testShardedMatchesSerial(t, classicLoad) })
	t.Run("pipelined", func(t *testing.T) { testShardedMatchesSerial(t, pipelinedLoad) })
}

func testShardedMatchesSerial(t *testing.T, load stackLoad) {
	// Build ignores Shards: the serial reference is one kernel carrying
	// every machine, even with a split configured, and perfbench builds
	// its serial baseline for a sharded workload exactly this way.
	cfg := Config{Hosts: 1, Nodes: stackNodes, Seed: 11, Shards: 4, Comm: load.comm}
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
	stackTraffic(sys, load, serialOut)
	if err := sys.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	want := stackDigest(sys, serialOut)
	for pi, o := range serialOut {
		if o.recv != load.msgs {
			t.Fatalf("serial pair %d delivered %d/%d", pi, o.recv, load.msgs)
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
		stackTraffic(sh, load, out)
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
// between any two shards while a short message is in the fabric, and
// two (2·HopFixed) while none is.
func TestBuildShardedShardEdges(t *testing.T) {
	sh, err := BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 1 {
		t.Fatalf("shards=1 built %d shards", sh.Shards())
	}
	out := make([]pairOutcome, stackPairs)
	stackTraffic(sh, classicLoad, out)
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	for pi, o := range out {
		if o.recv != classicLoad.msgs {
			t.Fatalf("shards=1 pair %d delivered %d/%d", pi, o.recv, classicLoad.msgs)
		}
	}

	sh4, err := BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	narrow, wide := sh4.Group.Lookahead()
	if narrow != sh4.Costs.HopFixed || wide != 2*sh4.Costs.HopFixed {
		t.Fatalf("4-shard promises = %v narrow, %v wide; want HopFixed (%v) and 2·HopFixed", narrow, wide, sh4.Costs.HopFixed)
	}
}

// The two frame sizes of shortFrameLoad: an 8-byte raw frame, the
// size of a UDO credit, and a 16-byte answer, a heartbeat's. Both are
// under the 20 bytes whose wire time is one HopFixed, so each holds the
// group's narrow promise while it crosses.
const (
	probeSize = 8
	echoSize  = 16
)

// frameLog counts one pair's short frames arriving in one direction
// and notes the instant of the last.
type frameLog struct {
	n    int
	last sim.Time
}

// shortFrames registers the "probe" and "echo" services on every
// pair's two machines and returns the load that drives them: each of
// the 128 to 176-byte channel writes is followed by a probe from the
// writer's machine to the reader's, which answers with an echo. Between
// frames nothing short is in flight, so one run opens grants under both
// promises. Each log slot is written by one shard only.
func shortFrames(s chanSys, probes, echoes []frameLog) stackLoad {
	for pi := 0; pi < stackPairs; pi++ {
		pi := pi
		wm, rm := s.Node(pi), s.Node(pi+stackPairs)
		rm.IF.Register("probe", netif.Service{
			Cost: func(*hpc.Message) sim.Duration { return sim.Microsecond },
			Handle: func(*hpc.Message) {
				probes[pi].n++
				probes[pi].last = rm.Kern.Kernel().Now()
				rm.IF.SendAsync(wm.EP, "echo", echoSize, nil, nil)
			},
		})
		wm.IF.Register("echo", netif.Service{
			Cost: func(*hpc.Message) sim.Duration { return sim.Microsecond },
			Handle: func(*hpc.Message) {
				echoes[pi].n++
				echoes[pi].last = wm.Kern.Kernel().Now()
			},
		})
	}
	return stackLoad{msgs: 6, size: func(pi, _ int) int { return 128 + 8*pi },
		afterWrite: func(w, r *Machine) { w.IF.SendAsync(r.EP, "probe", probeSize, nil, nil) }}
}

// shortFrameDigest is stackDigest with each pair's short frames.
func shortFrameDigest(s chanSys, out []pairOutcome, probes, echoes []frameLog) string {
	d := stackDigest(s, out)
	for pi := range probes {
		d += fmt.Sprintf("pair%d probes=%d at=%d echoes=%d at=%d\n", pi, probes[pi].n, int64(probes[pi].last), echoes[pi].n, int64(echoes[pi].last))
	}
	return d
}

// TestShardedShortFramesMatchSerial sends frames under 20 bytes across
// shard boundaries, interleaved with channel writes, at 2 and 4 shards,
// where every pair's two machines sit on different shards. Each short
// frame holds the narrow promise while it crosses, so its hops post
// with less than the wide one and no panic; every pair's digest,
// probes and echoes included, must equal the serial build's.
func TestShardedShortFramesMatchSerial(t *testing.T) {
	cfg := Config{Hosts: 1, Nodes: stackNodes, Seed: 11}
	run := func(s chanSys) string {
		out := make([]pairOutcome, stackPairs)
		probes, echoes := make([]frameLog, stackPairs), make([]frameLog, stackPairs)
		load := shortFrames(s, probes, echoes)
		stackTraffic(s, load, out)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for pi := range out {
			if out[pi].recv != load.msgs || probes[pi].n != load.msgs || echoes[pi].n != load.msgs {
				t.Fatalf("pair %d: %d/%d writes, %d probes and %d echoes arrived", pi, out[pi].recv, load.msgs, probes[pi].n, echoes[pi].n)
			}
		}
		return shortFrameDigest(s, out, probes, echoes)
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := run(sys)
	for _, shards := range []int{2, 4} {
		c := cfg
		c.Shards = shards
		sh, err := BuildSharded(c)
		if err != nil {
			t.Fatal(err)
		}
		for pi := 0; pi < stackPairs; pi++ {
			if w, r := sh.Node(pi).EP, sh.Node(pi+stackPairs).EP; sh.Part.OfEndpoint(sh.Topo, w) == sh.Part.OfEndpoint(sh.Topo, r) {
				t.Fatalf("shards=%d: pair %d's machines share a shard", shards, pi)
			}
		}
		if got := run(sh); got != want {
			t.Fatalf("shards=%d digest diverged from serial:\n--- serial ---\n%s--- shards=%d ---\n%s", shards, want, shards, got)
		}
	}
}

// TestShardedNarrowingMovesNoEvent runs the classic stack traffic
// sharded twice, once with one hold on the narrow promise for the whole
// run, taken through the API hpc takes its holds with, and once
// without, so every grant opens under the narrow promise in one run and
// most under the wide one in the other. The promise decides how far a
// grant reaches, never which event runs next, so the digests must be
// byte-identical, down to the event and cross-post counts. The
// unstaggered variant opens every pair at 0: such runs can diverge from
// serial on a same-instant tie across a shard boundary (ROADMAP item
// 1), and a wider window must not move that either.
func TestShardedNarrowingMovesNoEvent(t *testing.T) {
	unstaggered := classicLoad
	unstaggered.unstaggered = true
	for _, c := range []struct {
		name string
		load stackLoad
	}{{"staggered", classicLoad}, {"unstaggered", unstaggered}} {
		for _, shards := range []int{2, 4} {
			run := func(narrowed bool) (digest string, grants uint64) {
				sh, err := BuildSharded(Config{Hosts: 1, Nodes: stackNodes, Seed: 11, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				out := make([]pairOutcome, stackPairs)
				stackTraffic(sh, c.load, out)
				k := sh.Sys[0].K
				if narrowed {
					k.HoldNarrow()
				}
				if err := sh.Run(); err != nil {
					t.Fatal(err)
				}
				if narrowed {
					k.ReleaseNarrow()
				}
				d := fmt.Sprintf("%sevents=%d cross=%d\n", stackDigest(sh, out), sh.Group.Scheduled(), sh.Group.CrossPosts())
				return d, sh.Group.SyncStats().DrainRuns
			}
			wide, wideGrants := run(false)
			narrow, narrowGrants := run(true)
			if wide != narrow {
				t.Fatalf("%s, shards=%d: the narrowed run diverged:\n--- wide ---\n%s--- narrowed ---\n%s", c.name, shards, wide, narrow)
			}
			t.Logf("%s, shards=%d: %d grants wide, %d narrowed", c.name, shards, wideGrants, narrowGrants)
		}
	}
}

// mcastDelivery is one multicast copy arriving: when, where, and its
// tag.
type mcastDelivery struct {
	at  sim.Time
	dst topo.EndpointID
	tag string
}

// multicastAll has endpoint 0 multicast size bytes to every other
// endpoint, owner(e) being the System that runs endpoint e, and returns
// the deliveries sorted by (time, destination). Each System logs only
// the deliveries to its own endpoints, so the logs are race-free. Every
// copy's completion notice must reach the sender.
func multicastAll(t *testing.T, systems []*System, owner func(topo.EndpointID) int, run func() error, size int) []mcastDelivery {
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
		if err := src.IC.SendMulticast(p, 0, dsts, size, nil, "mc", func(topo.EndpointID, *hpc.Message) { notices++ }); err != nil {
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
// delivers every copy at the serial run's instant at every split. The
// 8-byte multicast is short: its root holds the narrow promise until
// fan-out, and each copy from then until it lands.
func TestShardedMulticastMatchesSerial(t *testing.T) {
	for _, size := range []int{512, 8} {
		cfg := Config{Hosts: 1, Nodes: 63, Seed: 1}
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := multicastAll(t, []*System{sys}, func(topo.EndpointID) int { return 0 }, sys.Run, size)
		if len(want) != 63 {
			t.Fatalf("%d B: serial run delivered %d copies, want 63", size, len(want))
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
			got := multicastAll(t, sh.Sys, func(e topo.EndpointID) int { return sh.Part.OfEndpoint(sh.Topo, e) }, sh.Run, size)
			if len(got) != len(want) {
				t.Fatalf("%d B, shards=%d: %d copies delivered, serial %d", size, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d B, shards=%d: delivery %d = %+v, serial %+v", size, shards, i, got[i], want[i])
				}
			}
		}
	}
}
