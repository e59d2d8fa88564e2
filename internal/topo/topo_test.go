package topo

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestSingleCluster(t *testing.T) {
	tp, err := SingleCluster(12)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Clusters() != 1 || tp.Endpoints() != 12 || tp.Dimension() != 0 {
		t.Fatalf("bad topology: %v", tp)
	}
	for e := 0; e < 12; e++ {
		a := tp.AttachmentOf(EndpointID(e))
		if a.Cluster != 0 || a.Port != e {
			t.Errorf("endpoint %d attachment = %+v", e, a)
		}
	}
	if got := tp.Hops(0, 11); got != 0 {
		t.Errorf("hops within cluster = %d", got)
	}
}

func TestSingleClusterBounds(t *testing.T) {
	if _, err := SingleCluster(0); err == nil {
		t.Error("0 endpoints should fail")
	}
	if _, err := SingleCluster(13); err == nil {
		t.Error("13 endpoints should fail")
	}
}

func TestPaperConstruction1024Nodes(t *testing.T) {
	// Paper §1: "A hypercube-based system with 1024 nodes can be
	// built with 256 clusters by using 8 of the 12 ports on each
	// cluster for connections to other clusters and the other four
	// for connections to processing nodes."
	tp, err := IncompleteHypercube(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Endpoints() != 1024 {
		t.Fatalf("endpoints = %d, want 1024", tp.Endpoints())
	}
	if tp.Dimension() != 8 {
		t.Fatalf("dimension = %d, want 8", tp.Dimension())
	}
	if tp.Diameter() != 8 {
		t.Fatalf("diameter = %d, want 8", tp.Diameter())
	}
	for c := 0; c < 256; c++ {
		if used := tp.PortsUsed(ClusterID(c)); used != 12 {
			t.Fatalf("cluster %d uses %d ports, want 12", c, used)
		}
	}
}

func TestPortOverflowRejected(t *testing.T) {
	// dim(256)=8, so 5 endpoints/cluster needs 13 ports.
	if _, err := IncompleteHypercube(256, 5); err == nil {
		t.Fatal("expected port overflow error")
	}
}

func TestDimFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 256: 8, 257: 9}
	for n, want := range cases {
		if got := dimFor(n); got != want {
			t.Errorf("dimFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNeighborsIncomplete(t *testing.T) {
	tp, err := IncompleteHypercube(5, 1) // clusters 0..4, dim 3
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 4 (100) has cube neighbors 101,110 missing; only 000.
	n := tp.Neighbors(4)
	if len(n) != 1 || n[0] != 0 {
		t.Fatalf("neighbors(4) = %v, want [0]", n)
	}
	// Cluster 0 has neighbors 1, 2, 4.
	n = tp.Neighbors(0)
	if len(n) != 3 || n[0] != 1 || n[1] != 2 || n[2] != 4 {
		t.Fatalf("neighbors(0) = %v", n)
	}
}

func TestHasLink(t *testing.T) {
	tp, _ := IncompleteHypercube(6, 1)
	if !tp.HasLink(0, 4) || !tp.HasLink(4, 5) || !tp.HasLink(1, 3) {
		t.Error("expected cube links missing")
	}
	if tp.HasLink(1, 2) || tp.HasLink(3, 3) || tp.HasLink(0, 7) || tp.HasLink(-1, 0) {
		t.Error("unexpected link reported")
	}
}

// walkRoute is the sequence of clusters a message visits from cluster a
// to cluster b, inclusive of both, taking NextHop until it arrives.
func walkRoute(a, b ClusterID) []ClusterID {
	route := []ClusterID{a}
	for cur := a; cur != b; {
		cur, _ = NextHop(cur, b)
		route = append(route, cur)
	}
	return route
}

func TestClusterRouteUpAndDown(t *testing.T) {
	// In the 5-cluster cube (0..4, dim 3):
	// 1 (001) -> 4 (100): clear bit0, set bit2: 001 -> 000 -> 100.
	r := walkRoute(1, 4)
	want := []ClusterID{1, 0, 4}
	if len(r) != len(want) {
		t.Fatalf("route = %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("route = %v, want %v", r, want)
		}
	}
	// 4 -> 3: clear bit2, then set bits 0,1: 100 -> 000 -> 001 -> 011.
	r = walkRoute(4, 3)
	want = []ClusterID{4, 0, 1, 3}
	if len(r) != len(want) {
		t.Fatalf("route = %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("route = %v, want %v", r, want)
		}
	}
}

func TestRouteEndpointLevel(t *testing.T) {
	tp, _ := IncompleteHypercube(4, 2)
	// endpoints 0,1 on cluster 0; 6,7 on cluster 3.
	if tp.Hops(0, 7) != 2 {
		t.Fatalf("hops = %d, want 2", tp.Hops(0, 7))
	}
	if tp.Hops(0, 1) != 0 {
		t.Fatalf("same-cluster hops = %d", tp.Hops(0, 1))
	}
}

// Property: in any incomplete hypercube, every route (a) starts and
// ends correctly, (b) uses only existing clusters, (c) only traverses
// real cube links, and (d) has length equal to Hamming distance + 1.
func TestRouteValidityProperty(t *testing.T) {
	f := func(nRaw uint8, aRaw, bRaw uint16) bool {
		n := int(nRaw%200) + 1
		tp, err := IncompleteHypercube(n, 1)
		if err != nil {
			return false
		}
		a := ClusterID(int(aRaw) % n)
		b := ClusterID(int(bRaw) % n)
		r := walkRoute(a, b)
		if r[0] != a || r[len(r)-1] != b {
			return false
		}
		if len(r) != bits.OnesCount(uint(a)^uint(b))+1 {
			return false
		}
		for i, c := range r {
			if int(c) < 0 || int(c) >= n {
				return false
			}
			if i > 0 && !tp.HasLink(r[i-1], c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// twoPhaseRoute is the two-phase loop routing ran before it took
// NextHop one step at a time, kept as the reference the walk must
// reproduce.
func twoPhaseRoute(dim int, a, b ClusterID) []ClusterID {
	route := []ClusterID{a}
	if a == b {
		return route
	}
	cur := uint(a)
	dst := uint(b)
	for d := dim - 1; d >= 0; d-- {
		bit := uint(1) << d
		if cur&bit != 0 && dst&bit == 0 {
			cur &^= bit
			route = append(route, ClusterID(cur))
		}
	}
	for d := 0; d < dim; d++ {
		bit := uint(1) << d
		if cur&bit == 0 && dst&bit != 0 {
			cur |= bit
			route = append(route, ClusterID(cur))
		}
	}
	return route
}

// TestNextHopWalkMatchesTwoPhaseRoute: for every ordered cluster pair
// of every incomplete cube of 1–70 clusters, walking NextHop visits
// the clusters the two-phase rule does, crosses a real cube link in
// the dimension it names at every step, and takes Hops steps.
func TestNextHopWalkMatchesTwoPhaseRoute(t *testing.T) {
	for n := 1; n <= 70; n++ {
		tp, err := IncompleteHypercube(n, 1) // endpoint c sits on cluster c
		if err != nil {
			t.Fatal(err)
		}
		for a := ClusterID(0); int(a) < n; a++ {
			for b := ClusterID(0); int(b) < n; b++ {
				want := twoPhaseRoute(tp.Dimension(), a, b)
				walk := []ClusterID{a}
				for cur := a; cur != b; {
					next, d := NextHop(cur, b)
					if !tp.HasLink(cur, next) {
						t.Fatalf("n=%d %d->%d: hop %d->%d is not a cube link", n, a, b, cur, next)
					}
					if d < 0 || d >= tp.Dimension() || uint(cur)^uint(next) != 1<<d {
						t.Fatalf("n=%d %d->%d: hop %d->%d reports dimension %d", n, a, b, cur, next, d)
					}
					walk = append(walk, next)
					if len(walk) > len(want) {
						t.Fatalf("n=%d %d->%d: walk %v overruns %v", n, a, b, walk, want)
					}
					cur = next
				}
				if !slices.Equal(walk, want) {
					t.Fatalf("n=%d %d->%d: walk %v, two-phase %v", n, a, b, walk, want)
				}
				if hops := tp.Hops(EndpointID(a), EndpointID(b)); len(walk)-1 != hops {
					t.Fatalf("n=%d %d->%d: %d hops, Hops says %d", n, a, b, len(walk)-1, hops)
				}
			}
		}
		if next, d := NextHop(ClusterID(n-1), ClusterID(n-1)); next != ClusterID(n-1) || d != -1 {
			t.Fatalf("NextHop(%d, %d) = %d, %d; want %d, -1", n-1, n-1, next, d, n-1)
		}
	}
}

// Property: the diameter of an incomplete hypercube never exceeds its
// dimension.
func TestDiameterBoundProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		tp, err := IncompleteHypercube(n, 1)
		if err != nil {
			return false
		}
		return tp.Diameter() <= tp.Dimension()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummaries(t *testing.T) {
	tp, _ := SingleCluster(3)
	if tp.String() != "HPC: 1 cluster, 3 endpoints" {
		t.Errorf("got %q", tp.String())
	}
	tp, _ = IncompleteHypercube(256, 4)
	want := "HPC: 256 clusters (dim-8 incomplete hypercube), 1024 endpoints, diameter 8"
	if tp.String() != want {
		t.Errorf("got %q, want %q", tp.String(), want)
	}
}

func TestRouteAvoidingMatchesShortestWhenClean(t *testing.T) {
	tp, _ := IncompleteHypercube(8, 1)
	up := func(a, b ClusterID) bool { return false }
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			r := tp.RouteAvoiding(ClusterID(a), ClusterID(b), up)
			if r == nil {
				t.Fatalf("no route %d->%d on a healthy cube", a, b)
			}
			want := bitsOn(uint(a) ^ uint(b))
			if len(r)-1 != want {
				t.Fatalf("route %d->%d has %d hops, want %d", a, b, len(r)-1, want)
			}
			if r[0] != ClusterID(a) || r[len(r)-1] != ClusterID(b) {
				t.Fatalf("route endpoints wrong: %v", r)
			}
		}
	}
}

func bitsOn(x uint) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestRouteAvoidingDetours(t *testing.T) {
	tp, _ := IncompleteHypercube(4, 1) // complete 2-cube: 0-1-3, 0-2-3
	bad := map[[2]ClusterID]bool{{0, 1}: true, {1, 0}: true}
	down := func(a, b ClusterID) bool { return bad[[2]ClusterID{a, b}] }
	r := tp.RouteAvoiding(0, 1, down)
	if len(r) != 4 { // 0 -> 2 -> 3 -> 1
		t.Fatalf("detour route = %v", r)
	}
	for i := 1; i < len(r); i++ {
		if down(r[i-1], r[i]) {
			t.Fatalf("route %v uses a down link", r)
		}
		if !tp.HasLink(r[i-1], r[i]) {
			t.Fatalf("route %v uses a non-link", r)
		}
	}
}

func TestRouteAvoidingPartition(t *testing.T) {
	tp, _ := IncompleteHypercube(2, 1) // one link only
	bad := func(a, b ClusterID) bool { return true }
	if r := tp.RouteAvoiding(0, 1, bad); r != nil {
		t.Fatalf("partitioned pair yielded route %v", r)
	}
	if r := tp.RouteAvoiding(1, 1, bad); len(r) != 1 || r[0] != 1 {
		t.Fatalf("self route = %v", r)
	}
}

func TestPartitionClusters(t *testing.T) {
	topo, err := IncompleteHypercube(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionClusters(topo, 4)
	if p.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", p.Shards())
	}
	prev := 0
	counts := make([]int, p.Shards())
	for c := 0; c < topo.Clusters(); c++ {
		sh := p.OfCluster(ClusterID(c))
		if sh < prev {
			t.Fatalf("cluster %d on shard %d after shard %d: not contiguous", c, sh, prev)
		}
		prev = sh
		counts[sh]++
	}
	for sh, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no clusters", sh)
		}
	}
	for e := 0; e < topo.Endpoints(); e++ {
		id := EndpointID(e)
		want := p.OfCluster(topo.AttachmentOf(id).Cluster)
		if got := p.OfEndpoint(topo, id); got != want {
			t.Fatalf("endpoint %d on shard %d, cluster says %d", e, got, want)
		}
	}
}

func TestPartitionClustersClamps(t *testing.T) {
	topo, err := IncompleteHypercube(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := PartitionClusters(topo, 0).Shards(); got != 1 {
		t.Fatalf("shards=0 clamped to %d, want 1", got)
	}
	if got := PartitionClusters(topo, 99).Shards(); got != 3 {
		t.Fatalf("shards=99 clamped to %d, want 3", got)
	}
	p := PartitionClusters(topo, 1)
	for c := 0; c < topo.Clusters(); c++ {
		if p.OfCluster(ClusterID(c)) != 0 {
			t.Fatalf("single shard: cluster %d not on shard 0", c)
		}
	}
}

// TestPartitionPropertiesQuick drives PartitionClusters over random
// pool shapes and shard requests: the split must be contiguous, cover
// every cluster, balance shard sizes within one cluster, and honor the
// [1, clusters] clamp.
func TestPartitionPropertiesQuick(t *testing.T) {
	f := func(rawClusters, rawShards uint8) bool {
		clusters := 1 + int(rawClusters)%24
		shards := int(rawShards) % 32 // includes 0 and > clusters
		tp, err := IncompleteHypercube(clusters, 4)
		if err != nil {
			t.Fatalf("clusters=%d: %v", clusters, err)
		}
		p := PartitionClusters(tp, shards)
		n := p.Shards()
		want := shards
		if want < 1 {
			want = 1
		}
		if want > clusters {
			want = clusters
		}
		if n != want {
			t.Fatalf("clusters=%d shards=%d: got %d shards, want %d", clusters, shards, n, want)
		}
		counts := make([]int, n)
		prev := 0
		for c := 0; c < clusters; c++ {
			sh := p.OfCluster(ClusterID(c))
			if sh < prev || sh > prev+1 {
				t.Fatalf("clusters=%d shards=%d: cluster %d on shard %d after shard %d (not contiguous)",
					clusters, shards, c, sh, prev)
			}
			prev = sh
			counts[sh]++
		}
		lo, hi := counts[0], counts[0]
		for sh, k := range counts {
			if k == 0 {
				t.Fatalf("clusters=%d shards=%d: shard %d owns no clusters", clusters, shards, sh)
			}
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		if hi-lo > 1 {
			t.Fatalf("clusters=%d shards=%d: shard sizes %v differ by more than one cluster",
				clusters, shards, counts)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
