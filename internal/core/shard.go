// Sharded system assembly: one simulation partitioned over OS threads.
//
// BuildSharded runs the same assembly Build does — same topology, same
// endpoint assignment, same per-machine stacks — over one kernel per
// shard, and couples the kernels into a sim.Group under the
// conservative lookahead protocol, with the two promises of the cost
// model (see BuildSharded). Each shard's System holds the
// machines whose clusters it owns, its own fabric shard, and its own
// object-manager view; names hash over the same global manager list on
// every shard, so they resolve to the same manager everywhere.
// Intra-shard simulation is byte-identical to serial; with Shards=1
// the build degenerates to a one-kernel group whose dispatch
// replicates sim.Kernel.Run exactly.
package core

import (
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Sharded is a running installation split over parallel shards. Its
// machine accessors span all shards, in global index order.
type Sharded struct {
	Group *sim.Group
	Part  *topo.Partition
	Topo  *topo.Topology
	Costs *m68k.Costs
	// Sys[i] is shard i's System: its kernel, fabric shard, machines,
	// and manager view.
	Sys []*System

	fleet
}

// BuildSharded constructs the system partitioned over cfg.Shards
// parallel shards (see Config.Shards for the defaulting rule). Keep
// the shards' tracers disabled: shards run ahead of each other in
// wall-clock terms, so trace emission at shard boundaries would race.
func BuildSharded(cfg Config) (*Sharded, error) {
	sh, err := assemble(cfg, cfg.Shards)
	if err != nil {
		return nil, err
	}
	n := sh.Shards()
	kerns := make([]*sim.Kernel, n)
	ics := make([]*hpc.Interconnect, n)
	for i, sys := range sh.Sys {
		kerns[i], ics[i] = sys.K, sys.IC
	}
	// The narrow promise is one cube hop: anything one shard's clusters
	// do to another's crosses at least one, at HopFixed or more. The wide
	// one is two: a message leaves its node on its own cluster's up-link
	// before any cube hop, and a hop of one of 20 bytes or more lasts
	// 2·HopFixed. hpc holds the narrow promise while a shorter message
	// is in the fabric.
	sh.Group = sim.NewGroup(sh.Costs.HopFixed, 2*sh.Costs.HopFixed, kerns...)
	if n > 1 {
		shardOf := make([]int, sh.Topo.Clusters())
		for c := range shardOf {
			shardOf[c] = sh.Part.OfCluster(topo.ClusterID(c))
		}
		for i, ic := range ics {
			ic.ConnectShards(i, shardOf, ics)
		}
	}
	return sh, nil
}

// Shards returns the number of shards after clamping.
func (s *Sharded) Shards() int { return len(s.Sys) }

// Run drives all shards until quiescence; see sim.Group.Run.
func (s *Sharded) Run() error { return s.Group.Run() }

// FabricStats sums interconnect counters over all shards.
func (s *Sharded) FabricStats() hpc.Stats {
	var total hpc.Stats
	for _, sys := range s.Sys {
		st := sys.IC.Stats()
		total.MessagesDelivered += st.MessagesDelivered
		total.BytesDelivered += st.BytesDelivered
		total.MessagesSent += st.MessagesSent
		total.MulticastsSent += st.MulticastsSent
		total.Reroutes += st.Reroutes
		total.HandoffsOut += st.HandoffsOut
		total.HandoffsIn += st.HandoffsIn
	}
	return total
}
