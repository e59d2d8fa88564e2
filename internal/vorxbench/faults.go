package vorxbench

import (
	"fmt"

	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
)

// E12FaultStorm measures the LAM's recovery behaviour under a seeded
// fault storm: an HPC cube-link failure (traffic reroutes, nothing is
// lost), a node crash (channel peers get errors, the resource manager
// force-frees the dead node's processors — §3.1), and a DFS host crash
// (clients fail over to the surviving replica). All faults fire from
// the deterministic fault engine, so the row is reproducible
// bit-for-bit.
func E12FaultStorm() *Table {
	t := &Table{
		ID:     "E12",
		Title:  "Fault storm: recovery latency and exactly-once delivery (extension)",
		Header: []string{"scenario", "injected fault", "recovery observed"},
	}

	// --- One storm over a 4-cluster LAM (2 hosts + 14 nodes). ---
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 12})
	if err != nil {
		panic(err)
	}
	res := resmgr.NewVORX(sys.K, 14)
	if _, err := res.Allocate("alice", 14); err != nil {
		panic(err)
	}
	eng := fault.New(sys.K, 12)
	eng.Bind(sys)
	eng.BindResmgr(res)
	linkDownAt := 1 * sim.Millisecond
	crashAt := 2 * sim.Millisecond
	if err := eng.Apply([]fault.Op{
		{At: linkDownAt, Kind: "link-down", Args: []string{"0", "2"}},
		{At: 8 * sim.Millisecond, Kind: "link-up", Args: []string{"0", "2"}},
		{At: crashAt, Kind: "crash", Args: []string{"node6"}},
	}); err != nil {
		panic(err)
	}

	// Pair A crosses the failed link (node1 on cluster 0 → node8 on
	// cluster 2); pair B's reader is the crashed node6; pair C is an
	// unaffected control (cluster 1 → cluster 3).
	const msgs = 24
	const size = 512
	type pairRes struct {
		recv     int
		dups     int
		deliverT []sim.Time
		writeErr error
		errAt    sim.Time
	}
	pairs := [][2]int{{1, 8}, {0, 6}, {2, 12}}
	results := make([]pairRes, len(pairs))
	for pi, pr := range pairs {
		pi, pr := pi, pr
		name := fmt.Sprintf("e12-%d", pi)
		wm, rm := sys.Node(pr[0]), sys.Node(pr[1])
		sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < msgs; i++ {
				if err := ch.Write(sp, size, i); err != nil {
					results[pi].writeErr = err
					results[pi].errAt = sp.Now()
					return
				}
			}
		})
		sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			want := 0
			for i := 0; i < msgs; i++ {
				m, ok := ch.Read(sp)
				if !ok {
					return
				}
				if m.Payload.(int) < want {
					results[pi].dups++
				}
				want = m.Payload.(int) + 1
				results[pi].recv++
				results[pi].deliverT = append(results[pi].deliverT, sp.Now())
			}
		})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}

	// Link failure: every message arrived, via the detour while down.
	var firstDetour sim.Duration = -1
	for _, at := range results[0].deliverT {
		if at > sim.Time(linkDownAt) {
			firstDetour = at.Sub(sim.Time(linkDownAt))
			break
		}
	}
	detourMsgs := 0
	for _, ls := range sys.IC.LinkStats() {
		if ls.Name == "cube3-2" {
			detourMsgs = ls.Messages
		}
	}
	t.AddRow("HPC link failure",
		"cube link 0-2 down 1-8 ms",
		fmt.Sprintf("%d/%d delivered, 0 lost; %d msgs detoured 0-1-3-2; first detour delivery +%.0f µs after failure",
			results[0].recv, msgs, detourMsgs, firstDetour.Microseconds()))

	// Node crash: the writer got an error (not a hang) and the dead
	// node's processor was force-freed. Only that pair's writer fails.
	for pi, r := range results {
		if (r.writeErr != nil) != (pi == 1) {
			panic(fmt.Sprintf("E12 pair %d: writer error %v; only pair 1, whose reader crashed, may fail", pi, r.writeErr))
		}
	}
	errLatency := results[1].errAt.Sub(sim.Time(crashAt))
	t.AddRow("node crash",
		"node6 dies at 2 ms",
		fmt.Sprintf("writer unblocked with error +%.0f µs after crash; processors force-freed: %d (node6 owner now %q, node5 still \"alice\")",
			errLatency.Microseconds(), res.ForceFrees, res.OwnerOf(6)))

	// Exactly-once: surviving pairs saw every message once, in order.
	t.AddRow("exactly-once under storm",
		"all of the above",
		fmt.Sprintf("surviving pairs received %d+%d/%d each, %d duplicates, %d timeout retransmits",
			results[0].recv, results[2].recv, msgs,
			results[0].dups+results[2].dups, totalTimeoutRetrans(sys)))

	// --- DFS failover: separate small system. ---
	dsys, err := core.Build(core.Config{Hosts: 2, Nodes: 2, Seed: 9})
	if err != nil {
		panic(err)
	}
	fs := dfs.New(dsys, dsys.Hosts(), 2)
	deng := fault.New(dsys.K, 9)
	deng.Bind(dsys)
	deng.BindDFS(fs)
	const file = "boot.image"
	primary := fs.ReplicaHosts(file)[0]
	var normal, failover sim.Duration
	var failErr error
	cm := dsys.Node(0)
	client := fs.NewClient(cm)
	dsys.Spawn(cm, "client", 0, func(sp *kern.Subprocess) {
		if err := client.Create(sp, file); err != nil {
			failErr = err
			return
		}
		if err := client.Append(sp, file, make([]byte, 4096)); err != nil {
			failErr = err
			return
		}
		t0 := sp.Now()
		if _, err := client.Read(sp, file); err != nil {
			failErr = err
			return
		}
		normal = sp.Now().Sub(t0)
		sp.SleepFor(20 * sim.Millisecond) // host crash + detection pass
		t1 := sp.Now()
		_, failErr = client.Read(sp, file)
		failover = sp.Now().Sub(t1)
	})
	if err := deng.Apply([]fault.Op{
		{At: 10 * sim.Millisecond, Kind: "crash", Args: []string{fmt.Sprintf("host%d", primary)}},
	}); err != nil {
		panic(err)
	}
	if err := dsys.Run(); err != nil {
		panic(err)
	}
	if failErr != nil {
		panic(fmt.Sprintf("E12 dfs failover: %v", failErr))
	}
	t.AddRow("DFS host crash",
		fmt.Sprintf("host%d (primary replica) dies at 10 ms", primary),
		fmt.Sprintf("4 KB read fails over to surviving replica: %.0f µs vs %.0f µs normal",
			failover.Microseconds(), normal.Microseconds()))

	t.Note("seeded fault engine (internal/fault): same seed + schedule reproduces this table bit-for-bit")
	t.Note("reproduce interactively: go run ./cmd/vorx chaos")
	return t
}

// totalTimeoutRetrans sums channel end-to-end timeout retransmissions
// across the system.
func totalTimeoutRetrans(sys *core.System) int {
	n := 0
	for _, m := range sys.Machines() {
		n += m.Chans.TimeoutRetransmits
	}
	return n
}
