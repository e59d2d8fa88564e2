package topo

// Partition assigns every cluster of a topology to one of a fixed
// number of shards, for parallel simulation. Clusters are the natural
// grain: intra-cluster traffic (bus arbitration, up-link hops, local
// delivery) stays on one shard's event queue, and only cube-link
// traffic crosses shards — which is exactly the traffic whose minimum
// latency (the fixed per-hop cost plus wire time) funds the
// conservative lookahead.
type Partition struct {
	shards    int
	byCluster []int
}

// PartitionClusters splits t's clusters over the requested number of
// shards in contiguous, balanced runs: cluster c goes to shard
// c*shards/nClusters. Contiguity keeps hypercube neighbors (which
// differ in one address bit) on the same shard more often than a
// round-robin split would, and the assignment is a pure function of
// (topology, shards), so a given configuration always partitions the
// same way. shards is clamped to [1, clusters].
func PartitionClusters(t *Topology, shards int) *Partition {
	n := t.Clusters()
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	p := &Partition{shards: shards, byCluster: make([]int, n)}
	for c := 0; c < n; c++ {
		p.byCluster[c] = c * shards / n
	}
	return p
}

// Shards returns the shard count after clamping.
func (p *Partition) Shards() int { return p.shards }

// OfCluster returns the shard that owns cluster c.
func (p *Partition) OfCluster(c ClusterID) int { return p.byCluster[c] }

// OfEndpoint returns the shard that owns e's cluster.
func (p *Partition) OfEndpoint(t *Topology, e EndpointID) int {
	return p.byCluster[t.AttachmentOf(e).Cluster]
}
