package hpc

import (
	"testing"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// newCube builds a 4-cluster (dim-2) fabric with one endpoint per
// cluster: endpoint e sits on cluster e.
func newCube(t *testing.T) (*sim.Kernel, *Interconnect) {
	t.Helper()
	k := sim.NewKernel(1)
	tp, err := topo.IncompleteHypercube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return k, New(k, m68k.DefaultCosts(), tp)
}

// TestLinkDownReroutesWithoutLoss: fail the canonical link before the
// send; the message takes the detour and nothing is lost.
func TestLinkDownReroutesWithoutLoss(t *testing.T) {
	k, ic := newCube(t)
	// Canonical route 0→1 uses cube link 0-1. Fail it.
	ic.SetCubeLinkDown(0, 1, true)
	delivered := 0
	ic.SetDeliver(1, func(d *Delivery) { delivered++; d.Release() })
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 200}, nil); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Fatalf("delivered %d of 3 across the detour", delivered)
	}
	// The detour 0→2→3→1 exists; the failed link must stay unused.
	for _, ls := range ic.LinkStats() {
		if (ls.Name == "cube0-1" || ls.Name == "cube1-0") && ls.Messages > 0 {
			t.Fatalf("failed link %s carried %d messages", ls.Name, ls.Messages)
		}
	}
}

// TestLinkDownMidFlightReroute: a message already queued at a link
// when it fails is re-pathed and still arrives; Stats.Reroutes counts
// the rescue.
func TestLinkDownMidFlightReroute(t *testing.T) {
	k, ic := newCube(t)
	delivered := 0
	ic.SetDeliver(1, func(d *Delivery) { delivered++; d.Release() })
	k.Spawn("sender", func(p *sim.Proc) {
		// Two back-to-back messages: the second queues behind the first.
		for i := 0; i < 2; i++ {
			if err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 1000}, nil); err != nil {
				t.Error(err)
			}
		}
	})
	// Fail the canonical link while traffic is queued on it. 8 µs is
	// after the first message entered the fabric but before the second
	// clears cube0-1 (each hop of a 1000-byte message takes 51 µs).
	k.After(8*sim.Microsecond, func() { ic.SetCubeLinkDown(0, 1, true) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d of 2 after mid-flight failure", delivered)
	}
	if ic.Stats().Reroutes == 0 {
		t.Fatal("expected at least one mid-flight reroute")
	}
}

// TestPartitionReportsUnreachable: with every path to the destination
// failed, TrySend returns an error instead of wedging, and repair
// restores service.
func TestPartitionReportsUnreachable(t *testing.T) {
	k, ic := newCube(t)
	// Cluster 3 reaches the rest via 3-1 and 3-2 only.
	ic.SetCubeLinkDown(3, 1, true)
	ic.SetCubeLinkDown(3, 2, true)
	ok, err := ic.TrySend(&Message{Src: 0, Dst: 3, Size: 100}, nil)
	if ok || err == nil {
		t.Fatalf("partitioned destination: ok=%v err=%v, want unreachable error", ok, err)
	}
	// Same-side traffic still flows.
	delivered := 0
	ic.SetDeliver(2, func(d *Delivery) { delivered++; d.Release() })
	k.Spawn("sender", func(p *sim.Proc) {
		if err := ic.Send(p, &Message{Src: 0, Dst: 2, Size: 100}, nil); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("traffic on the surviving side must be unaffected")
	}
	// Repair and verify reachability returns.
	ic.SetCubeLinkDown(3, 1, false)
	ic.SetCubeLinkDown(3, 2, false)
	if ok, err := ic.TrySend(&Message{Src: 0, Dst: 3, Size: 100}, nil); !ok || err != nil {
		t.Fatalf("after repair: ok=%v err=%v", ok, err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLinkUpResumesParkedTraffic: a transfer with no surviving path
// parks at the failed link and completes after repair — the "never
// loses messages" guarantee holds across the outage.
func TestLinkUpResumesParkedTraffic(t *testing.T) {
	k, ic := newCube(t)
	delivered := 0
	ic.SetDeliver(3, func(d *Delivery) { delivered++; d.Release() })
	k.Spawn("sender", func(p *sim.Proc) {
		if err := ic.Send(p, &Message{Src: 0, Dst: 3, Size: 1000}, nil); err != nil {
			t.Error(err)
		}
	})
	// Isolate cluster 3 while the message is in flight (committed at
	// send time, so no unreachable error), then repair one link later.
	k.After(8*sim.Microsecond, func() {
		ic.SetCubeLinkDown(3, 1, true)
		ic.SetCubeLinkDown(3, 2, true)
	})
	k.After(2*sim.Millisecond, func() { ic.SetCubeLinkDown(3, 1, false) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("parked message must deliver after link repair")
	}
}

// TestDegradedLinkSlowsTransfer: a slowdown factor stretches wire time
// on the degraded link and restoring it returns latency to normal.
func TestDegradedLinkSlowsTransfer(t *testing.T) {
	timeOnce := func(factor float64) sim.Time {
		k, ic := newCube(t)
		if factor > 0 {
			ic.SetCubeLinkSlowdown(0, 1, factor)
		}
		var at sim.Time
		ic.SetDeliver(1, func(d *Delivery) { at = k.Now(); d.Release() })
		k.Spawn("sender", func(p *sim.Proc) {
			if err := ic.Send(p, &Message{Src: 0, Dst: 1, Size: 1000}, nil); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	clean := timeOnce(0)
	slow := timeOnce(4.0)
	restored := timeOnce(1.0) // factor <= 1 restores full rate
	if slow <= clean {
		t.Fatalf("degraded link not slower: clean %v, degraded %v", clean, slow)
	}
	if restored != clean {
		t.Fatalf("restored link latency %v, want %v", restored, clean)
	}
}

// TestUnknownCubeLinksIgnored: failing, degrading or querying a pair
// of clusters that no cube link joins — equal, two bits apart, a
// neighbor the incomplete cube lacks, out of range or negative — is a
// no-op that never indexes outside the fabric's link table.
func TestUnknownCubeLinksIgnored(t *testing.T) {
	k := sim.NewKernel(1)
	tp, err := topo.IncompleteHypercube(5, 1) // clusters 0..4, dim 3: 4 has no neighbors 5, 6
	if err != nil {
		t.Fatal(err)
	}
	ic := New(k, m68k.DefaultCosts(), tp)
	pairs := [][2]topo.ClusterID{
		{2, 2}, {1, 2}, {0, 3}, // equal, and two bits apart
		{4, 5}, {4, 6}, {0, 8}, {9, 1}, {1 << 20, 0}, // beyond the clusters present
		{-1, 0}, {0, -1}, {-1, -2}, {3, -5}, // negative
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		ic.SetCubeLinkDown(a, b, true)
		ic.SetCubeLinkSlowdown(a, b, 4)
		if ic.CubeLinkDown(a, b) || ic.CubeLinkDown(b, a) {
			t.Fatalf("CubeLinkDown(%d, %d) reports a failed link", a, b)
		}
		ic.SetCubeLinkDown(a, b, false)
	}
	if n := ic.DownCubeLinks(); n != 0 {
		t.Fatalf("%d cube links down after failing only unknown pairs", n)
	}
	for _, l := range ic.cube {
		if l != nil && (l.down || l.slowdown != 0) {
			t.Fatalf("link %s changed: down=%v slowdown=%v", l.name, l.down, l.slowdown)
		}
	}
	// A real link still fails and repairs, so the no-ops above are not
	// a dead entry point.
	ic.SetCubeLinkDown(4, 0, true)
	if !ic.CubeLinkDown(0, 4) || ic.DownCubeLinks() != 2 {
		t.Fatalf("real link 0-4: down=%v count=%d", ic.CubeLinkDown(0, 4), ic.DownCubeLinks())
	}
	ic.SetCubeLinkDown(4, 0, false)
	if ic.DownCubeLinks() != 0 {
		t.Fatalf("%d cube links down after repair", ic.DownCubeLinks())
	}
}
