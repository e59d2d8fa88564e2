// Package topo builds and routes HPC interconnect topologies.
//
// The HPC consists of twelve-port self-routing star clusters. A system
// of up to twelve endpoints uses a single cluster; larger systems
// dedicate some ports of each cluster to inter-cluster links. Following
// the paper (and Katseff, "Incomplete Hypercubes", IEEE ToC 1988) the
// clusters are connected as an incomplete hypercube, so any number of
// clusters — not just powers of two — forms a connected, low-diameter
// network. The paper's flagship construction is 1024 nodes from 256
// clusters, with 8 ports per cluster used for cube links and 4 for
// processing nodes.
package topo

import (
	"fmt"
	"math/bits"
)

// PortsPerCluster is the port count of an HPC cluster.
const PortsPerCluster = 12

// EndpointID identifies an endpoint (processing node or workstation
// attachment) in a topology. IDs are dense, starting at zero.
type EndpointID int

// ClusterID identifies a cluster. IDs are dense, starting at zero.
type ClusterID int

// Attachment records where an endpoint plugs into the interconnect.
type Attachment struct {
	Cluster ClusterID
	Port    int // port index on the cluster, 0-based
}

// Topology is an immutable description of an HPC interconnect: a set
// of clusters joined as an incomplete hypercube, with endpoints
// attached to the remaining ports.
type Topology struct {
	nClusters int
	dim       int // hypercube dimension (0 for a single cluster)
	attach    []Attachment
	// perCluster[c] lists the endpoints attached to cluster c.
	perCluster [][]EndpointID
}

// SingleCluster returns a topology of one cluster with n endpoints
// (1 ≤ n ≤ 12).
func SingleCluster(n int) (*Topology, error) {
	if n < 1 || n > PortsPerCluster {
		return nil, fmt.Errorf("topo: single cluster supports 1..%d endpoints, got %d", PortsPerCluster, n)
	}
	t := &Topology{nClusters: 1, dim: 0, perCluster: make([][]EndpointID, 1)}
	for i := 0; i < n; i++ {
		t.attach = append(t.attach, Attachment{Cluster: 0, Port: i})
		t.perCluster[0] = append(t.perCluster[0], EndpointID(i))
	}
	return t, nil
}

// IncompleteHypercube returns a topology of nClusters clusters joined
// as an incomplete hypercube, each with perCluster endpoints attached.
// The hypercube dimension is ceil(log2(nClusters)); that many ports of
// every cluster are reserved for cube links, so
// dim + perCluster must not exceed 12.
func IncompleteHypercube(nClusters, perCluster int) (*Topology, error) {
	if nClusters < 1 {
		return nil, fmt.Errorf("topo: need at least one cluster, got %d", nClusters)
	}
	if perCluster < 0 {
		return nil, fmt.Errorf("topo: negative endpoints per cluster")
	}
	dim := dimFor(nClusters)
	if dim+perCluster > PortsPerCluster {
		return nil, fmt.Errorf("topo: %d cube ports + %d endpoint ports exceeds %d ports per cluster",
			dim, perCluster, PortsPerCluster)
	}
	t := &Topology{
		nClusters:  nClusters,
		dim:        dim,
		perCluster: make([][]EndpointID, nClusters),
	}
	id := EndpointID(0)
	for c := 0; c < nClusters; c++ {
		for p := 0; p < perCluster; p++ {
			// Endpoint ports sit above the cube-link ports.
			t.attach = append(t.attach, Attachment{Cluster: ClusterID(c), Port: dim + p})
			t.perCluster[c] = append(t.perCluster[c], id)
			id++
		}
	}
	return t, nil
}

// dimFor returns ceil(log2(n)) with dimFor(1) == 0.
func dimFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Clusters returns the number of clusters.
func (t *Topology) Clusters() int { return t.nClusters }

// Dimension returns the hypercube dimension (ports per cluster used
// for inter-cluster links).
func (t *Topology) Dimension() int { return t.dim }

// Endpoints returns the number of attached endpoints.
func (t *Topology) Endpoints() int { return len(t.attach) }

// AttachmentOf returns where endpoint e plugs in.
func (t *Topology) AttachmentOf(e EndpointID) Attachment { return t.attach[e] }

// EndpointsOn returns the endpoints attached to cluster c.
func (t *Topology) EndpointsOn(c ClusterID) []EndpointID { return t.perCluster[c] }

// HasLink reports whether clusters a and b are joined by a cube link:
// their ids differ in exactly one bit and both exist.
func (t *Topology) HasLink(a, b ClusterID) bool {
	if a == b || int(a) >= t.nClusters || int(b) >= t.nClusters || a < 0 || b < 0 {
		return false
	}
	x := uint(a) ^ uint(b)
	return x&(x-1) == 0
}

// Neighbors returns the clusters directly linked to c, in dimension
// order.
func (t *Topology) Neighbors(c ClusterID) []ClusterID {
	var out []ClusterID
	for d := 0; d < t.dim; d++ {
		n := ClusterID(uint(c) ^ (1 << d))
		if int(n) < t.nClusters {
			out = append(out, n)
		}
	}
	return out
}

// NextHop is one self-routing step of the incomplete-hypercube rule:
// the cluster a message at cur moves to next on its way to dst, and the
// dimension of the cube link it crosses. It clears the highest bit cur
// has and dst lacks; once none is left, it sets the lowest bit dst has
// and cur lacks. When cur == dst it returns (cur, -1).
//
// A route is thus taken in two phases: first clear (descending
// dimension order) every bit where the source has 1 and dst has 0,
// moving through clusters numbered below the source; then set
// (ascending order) every bit where dst has 1, moving through subsets
// of dst's address. Every intermediate therefore exists in the
// incomplete cube, the path is a shortest path, and — because every
// message acquires link classes in the same global order (clear-high …
// clear-low, set-low … set-high) — the store-and-forward buffer
// dependency graph is acyclic, so the fabric cannot deadlock.
func NextHop(cur, dst ClusterID) (next ClusterID, dim int) {
	if x := uint(cur) &^ uint(dst); x != 0 {
		d := bits.Len(x) - 1
		return ClusterID(uint(cur) &^ (1 << d)), d
	}
	if x := uint(dst) &^ uint(cur); x != 0 {
		d := bits.TrailingZeros(x)
		return ClusterID(uint(cur) | 1<<d), d
	}
	return cur, -1
}

// RouteAvoiding returns a shortest cluster route from a to b that
// traverses no cube link for which down reports true, or nil when the
// failures partition a from b. Unlike NextHop's fixed dimension-order
// rule, this is a breadth-first search over the surviving links
// — the route a self-routing cluster would discover after the failed
// port is masked out. Neighbors are explored in dimension order, so
// the result is deterministic for a given failure set. down is
// consulted with the directed pair (from, to) of every candidate hop.
func (t *Topology) RouteAvoiding(a, b ClusterID, down func(from, to ClusterID) bool) []ClusterID {
	if a == b {
		return []ClusterID{a}
	}
	prev := make([]ClusterID, t.nClusters)
	seen := make([]bool, t.nClusters)
	seen[a] = true
	queue := []ClusterID{a}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(c) {
			if seen[nb] || down(c, nb) {
				continue
			}
			seen[nb] = true
			prev[nb] = c
			if nb == b {
				var rev []ClusterID
				for x := b; ; x = prev[x] {
					rev = append(rev, x)
					if x == a {
						break
					}
				}
				route := make([]ClusterID, len(rev))
				for i, x := range rev {
					route[len(rev)-1-i] = x
				}
				return route
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

// Nearest returns the candidate endpoint closest (fewest cluster hops)
// to from, breaking ties by lowest endpoint id so the choice is
// deterministic. Returns -1 when candidates is empty. The supervisor
// uses this to place a reincarnated subprocess on the spare node whose
// traffic to the surviving peers disturbs the fabric least.
func (t *Topology) Nearest(from EndpointID, candidates []EndpointID) EndpointID {
	best := EndpointID(-1)
	bestHops := 0
	for _, c := range candidates {
		h := t.Hops(from, c)
		if best < 0 || h < bestHops || (h == bestHops && c < best) {
			best, bestHops = c, h
		}
	}
	return best
}

// Hops returns the number of cluster-to-cluster links on the route
// between two endpoints (0 when they share a cluster).
func (t *Topology) Hops(src, dst EndpointID) int {
	a, b := t.attach[src].Cluster, t.attach[dst].Cluster
	return bits.OnesCount(uint(a) ^ uint(b))
}

// Diameter returns the maximum cluster-to-cluster distance over all
// cluster pairs present in the (possibly incomplete) cube.
func (t *Topology) Diameter() int {
	max := 0
	for a := 0; a < t.nClusters; a++ {
		for b := a + 1; b < t.nClusters; b++ {
			if d := bits.OnesCount(uint(a) ^ uint(b)); d > max {
				max = d
			}
		}
	}
	return max
}

// PortsUsed returns how many ports cluster c consumes: cube links that
// actually exist plus attached endpoints.
func (t *Topology) PortsUsed(c ClusterID) int {
	return len(t.Neighbors(c)) + len(t.perCluster[c])
}

// String summarizes the topology.
func (t *Topology) String() string {
	if t.nClusters == 1 {
		return fmt.Sprintf("HPC: 1 cluster, %d endpoints", len(t.attach))
	}
	return fmt.Sprintf("HPC: %d clusters (dim-%d incomplete hypercube), %d endpoints, diameter %d",
		t.nClusters, t.dim, len(t.attach), t.Diameter())
}
