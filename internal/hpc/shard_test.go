package hpc

import (
	"fmt"
	"testing"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// delivRec is one observed delivery: destination, tag, and virtual
// time. Each shard records only deliveries to its own endpoints, so
// per-shard logs are race-free and in dispatch order.
type delivRec struct {
	dst topo.EndpointID
	tag string
	at  sim.Time
}

// shardedFabric wires one Interconnect per shard over a shared
// topology and partition, exactly as core.BuildSharded does, with a
// recording deliver handler on every endpoint.
type shardedFabric struct {
	g    *sim.Group
	ics  []*Interconnect
	part *topo.Partition
	t    *topo.Topology
	logs [][]delivRec
}

func newShardedFabric(t *topo.Topology, shards int) *shardedFabric {
	part := topo.PartitionClusters(t, shards)
	n := part.Shards()
	costs := m68k.DefaultCosts()
	kerns := make([]*sim.Kernel, n)
	for i := range kerns {
		kerns[i] = sim.NewKernel(1)
	}
	var g *sim.Group
	if n > 1 {
		g = sim.NewGroup(sim.UniformLookahead(n, costs.HopFixed), kerns...)
	}
	f := &shardedFabric{g: g, part: part, t: t, logs: make([][]delivRec, n)}
	shardOf := make([]int, t.Clusters())
	for c := 0; c < t.Clusters(); c++ {
		shardOf[c] = part.OfCluster(topo.ClusterID(c))
	}
	f.ics = make([]*Interconnect, n)
	for i := 0; i < n; i++ {
		f.ics[i] = New(kerns[i], costs, t)
	}
	for i := 0; i < n; i++ {
		if n > 1 {
			f.ics[i].ConnectShards(i, shardOf, f.ics)
		}
		i := i
		for e := 0; e < t.Endpoints(); e++ {
			id := topo.EndpointID(e)
			if part.OfEndpoint(t, id) != i {
				continue
			}
			ic := f.ics[i]
			ic.SetDeliver(id, func(d *Delivery) {
				f.logs[i] = append(f.logs[i], delivRec{dst: d.Msg.Dst, tag: d.Msg.Tag, at: ic.k.Now()})
				ic.FreeMessage(d.Msg)
				d.Release()
			})
		}
	}
	return f
}

// icOf returns the fabric owning endpoint e.
func (f *shardedFabric) icOf(e topo.EndpointID) *Interconnect {
	return f.ics[f.part.OfEndpoint(f.t, e)]
}

func (f *shardedFabric) run(tt *testing.T) {
	tt.Helper()
	var err error
	if f.g != nil {
		err = f.g.Run()
	} else {
		err = f.ics[0].k.Run()
	}
	if err != nil {
		tt.Fatalf("run: %v", err)
	}
}

// crossTraffic schedules a deterministic burst: every endpoint sends a
// distinct-size message to the endpoint diametrically across the
// topology, at staggered tie-free starts, with some same-cluster pairs
// mixed in. Sends are scheduled on the sender's own shard, and each
// shard counts the sends its output sections accepted in its own slot
// of the returned slice, so the counts are race-free to sum after Run.
func crossTraffic(f *shardedFabric) (accepted []int) {
	n := f.t.Endpoints()
	accepted = make([]int, len(f.ics))
	for e := 0; e < n; e++ {
		src := topo.EndpointID(e)
		dst := topo.EndpointID((e + n/2) % n)
		size := 64 + 16*e
		tag := fmt.Sprintf("x%d", e)
		ic := f.icOf(src)
		shard := f.part.OfEndpoint(f.t, src)
		start := sim.Time(1 + 13*e)
		ic.k.At(start, func() {
			msg := ic.AllocMessage()
			msg.Src, msg.Dst, msg.Size, msg.Tag = src, dst, size, tag
			ok, err := ic.TrySend(msg, nil)
			if err != nil {
				panic(err)
			}
			if ok {
				accepted[shard]++
			}
		})
	}
	return accepted
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func flattenSorted(logs [][]delivRec) []delivRec {
	var all []delivRec
	for _, l := range logs {
		all = append(all, l...)
	}
	// Per-destination delivery order is deterministic; the global sort
	// key (at, dst, tag) gives a canonical cross-shard view.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := all[j-1], all[j]
			if a.at < b.at || (a.at == b.at && (a.dst < b.dst || (a.dst == b.dst && a.tag <= b.tag))) {
				break
			}
			all[j-1], all[j] = all[j], all[j-1]
		}
	}
	return all
}

func TestShardedFabricMatchesSerial(t *testing.T) {
	top, err := topo.IncompleteHypercube(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial := newShardedFabric(top, 1)
	serialAccepted := crossTraffic(serial)
	serial.run(t)
	want := flattenSorted(serial.logs)
	if len(want) == 0 {
		t.Fatal("serial run delivered nothing")
	}

	for _, shards := range []int{2, 3, 6} {
		f := newShardedFabric(top, shards)
		accepted := crossTraffic(f)
		f.run(t)
		if got, want := sum(accepted), sum(serialAccepted); got != want {
			t.Fatalf("shards=%d: %d sends accepted at once, serial %d", shards, got, want)
		}
		got := flattenSorted(f.logs)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d deliveries, serial %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: delivery %d = %+v, serial %+v", shards, i, got[i], want[i])
			}
		}
		var out, in int
		for _, ic := range f.ics {
			out += ic.Stats().HandoffsOut
			in += ic.Stats().HandoffsIn
		}
		if out == 0 || out != in {
			t.Fatalf("shards=%d: handoffs out=%d in=%d", shards, out, in)
		}
	}
}

// TestShardedFabricBackpressure drives many messages through one
// boundary link so transfers queue behind the reserved cube buffer,
// exercising boundaryFreed re-arming, and checks totals against
// serial.
func TestShardedFabricBackpressure(t *testing.T) {
	top, err := topo.IncompleteHypercube(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 12
	load := func(f *shardedFabric) {
		// Every endpoint of cluster 0 fires a burst at the same source,
		// all destined for endpoint 4 (cluster 1): one boundary link
		// serves everything.
		for e := 0; e < 4; e++ {
			src := topo.EndpointID(e)
			ic := f.icOf(src)
			for b := 0; b < burst; b++ {
				tag := fmt.Sprintf("b%d-%d", e, b)
				start := sim.Time(1 + 3*e + 50*b)
				ic.k.At(start, func() {
					msg := ic.AllocMessage()
					msg.Src, msg.Dst, msg.Size, msg.Tag = src, 4, 256, tag
					if ok, err := ic.TrySend(msg, nil); err != nil {
						panic(err)
					} else if !ok {
						// Output section busy: retry via room interrupt.
						ic.NotifyRoom(src, func() {
							m2 := ic.AllocMessage()
							m2.Src, m2.Dst, m2.Size, m2.Tag = src, 4, 256, tag
							if _, err := ic.TrySend(m2, nil); err != nil {
								panic(err)
							}
						})
					}
				})
			}
		}
	}
	serial := newShardedFabric(top, 1)
	load(serial)
	serial.run(t)
	want := flattenSorted(serial.logs)

	f := newShardedFabric(top, 2)
	load(f)
	f.run(t)
	got := flattenSorted(f.logs)
	if len(got) != len(want) {
		t.Fatalf("sharded delivered %d, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, serial %+v", i, got[i], want[i])
		}
	}
}

func TestShardedModeRejectsLinkFaults(t *testing.T) {
	top, err := topo.IncompleteHypercube(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := newShardedFabric(top, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetCubeLinkDown in sharded mode did not panic")
		}
	}()
	f.ics[0].SetCubeLinkDown(0, 1, true)
}
