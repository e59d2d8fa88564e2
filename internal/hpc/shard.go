package hpc

// Sharded fabric execution. When the simulation is partitioned over a
// sim.Group (one kernel per shard, clusters assigned by a
// topo.Partition), each shard runs its own Interconnect over the full
// shared topology but only ever simulates the links its shard owns: a
// cluster's up/down links, its internal arbitration, and every cube
// link *leaving* one of its clusters — including that link's
// store-and-forward buffer at the downstream end. Intra-shard traffic
// takes exactly the serial code path; only a cube hop into a foreign
// cluster crosses shards.
//
// The boundary protocol rides on one physical fact: a cube hop costs
// at least HopFixed, which is precisely the group's lookahead. When
// shard A starts transmitting over a boundary link a→b it already
// knows the completion time T, a full lookahead away, so everything
// the hop causes elsewhere is posted at its start:
//
//   - the message's arrival in b's cluster buffer (remoteArrive on
//     shard B, at T);
//   - nothing else yet — the buffer stays reserved on shard A until
//     shard B's continuation vacates it.
//
// Shard B rebuilds the remaining route from cluster b (sound because
// sharded mode forbids link faults, so routes are the canonical
// dimension-order paths both shards agree on). When the continuation
// starts its own first hop at U — again knowing its completion U+d —
// it posts the buffer release back to shard A at U+d (boundaryFreed),
// re-arming the boundary link. A delivered message whose onDelivered
// callback closes over another shard's state gets the same treatment:
// the final down-link hop posts the completion notice home at its
// start (carryBack). Every such signal therefore clears the lookahead
// with no slack to spare, and none needs rollback.
//
// Determinism: each directed boundary link serializes its hand-offs
// (the buffer reservation admits one in-flight message), and every
// cross-shard post joins its destination's event heap under the
// kernel's (at, seq) key, so a sharded run dispatches identically to
// the serial one — CI diffs the two byte-for-byte.
//
// With tracing enabled the source shard would read message fields at
// hand-off completion while the far shard may already have delivered
// and recycled the shell (virtual times are ordered; wall-clock is
// not). Sharded builds therefore keep tracers disabled; the vorx
// subcommands that need tracing clamp to one shard.

import (
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// ConnectShards registers this fabric as shard self of a sharded
// simulation: shardOf maps every cluster to its owning shard and peers
// lists all shard fabrics (peers[self] == ic). Call once, before any
// traffic, on every shard's fabric. The fabrics' kernels must belong
// to one sim.Group whose pairwise lookahead is at most the cost
// model's HopFixed across every boundary cube link, in both directions
// — remoteArrive rides the hop forward and boundaryFreed rides it
// back, each with exactly one hop of slack. Non-adjacent shard pairs
// may carry wider promises (route-aware lookahead); they exchange no
// direct fabric signals.
func (ic *Interconnect) ConnectShards(self int, shardOf []int, peers []*Interconnect) {
	if ic.k.Group() == nil && len(peers) > 1 {
		panic("hpc: ConnectShards on a kernel outside a sim.Group")
	}
	if g := ic.k.Group(); g != nil && len(peers) > 1 {
		for c := 0; c < ic.topo.Clusters(); c++ {
			sc := shardOf[c]
			for _, nb := range ic.topo.Neighbors(topo.ClusterID(c)) {
				sn := shardOf[nb]
				if sc == sn {
					continue
				}
				if g.PairLookahead(sc, sn) > ic.costs.HopFixed ||
					g.PairLookahead(sn, sc) > ic.costs.HopFixed {
					panic("hpc: group lookahead across a boundary link exceeds the minimum cube-hop cost")
				}
			}
		}
	}
	ic.shardSelf = self
	ic.shardOf = shardOf
	ic.peers = peers
}

// sharded reports whether this fabric is one shard of several.
func (ic *Interconnect) sharded() bool { return len(ic.peers) > 1 }

// handoff ships a transfer whose next cube hop lands in a foreign
// shard's cluster. The transmission itself (duration dur, already
// charged with wire time and slowdown by tryStart) is simulated here
// on the owning shard; the arrival is posted to the destination shard
// at the completion time, which clears the lookahead because
// dur >= HopFixed. The local bookkeeping happens at the same virtual
// instant via handoffDone.
func (ic *Interconnect) handoff(l *link, t *transfer, dur sim.Duration) {
	doneAt := ic.k.Now().Add(dur)
	ic.stats.HandoffsOut++
	msg := t.msg
	origin := t.notifySh
	onDel := t.onDelivered
	t.onDelivered = nil
	dstShard := ic.shardOf[l.to]
	if onDel != nil {
		// A delivery notice posts home from the final shard with one
		// hop of slack (carryBack); under route-aware lookahead that
		// only clears the promise when the delivering shard and the
		// notice's home are boundary-adjacent. No sharded workload
		// sends cross-shard completion notices between distant shards
		// (only multicast produces them), so this is a declared
		// restriction like link faults, not a silent wrong answer.
		fin := ic.shardOf[ic.topo.AttachmentOf(msg.Dst).Cluster]
		if fin != int(origin) && ic.k.Group().PairLookahead(fin, int(origin)) > ic.costs.HopFixed {
			panic("hpc: cross-shard delivery notice between non-adjacent shards is not supported under route-aware lookahead; run multicast workloads on the serial kernel")
		}
	}
	peer := ic.peers[dstShard]
	from, to := l.from, l.to
	ic.k.Post(dstShard, doneAt, func() {
		peer.remoteArrive(from, to, msg, origin, onDel)
	})
	ic.k.At(doneAt, func() { l.handoffDone(t) })
}

// handoffDone is the source-shard half of a boundary hop's completion:
// it ends the hop like complete() does, but the message's onward
// journey now belongs to the far shard, and the downstream buffer —
// owned here — stays reserved until the far shard's continuation
// vacates it.
func (l *link) handoffDone(t *transfer) {
	l.endHop(t)
	t.holder = nil
	t.doneHops = true
	t.released = true
	t.maybeRecycle()
}

// remoteArrive runs on the destination shard at the instant a boundary
// transmission over from→to completes: the message now sits in that
// link's downstream buffer, owned by the sending shard. A fresh
// transfer carries it the rest of the way along the canonical route;
// when its first onward hop starts — completion time in hand — the
// buffer release is posted back to the sender's shard.
func (ic *Interconnect) remoteArrive(from, to topo.ClusterID, msg *Message, origin int32, onDel func(*Message)) {
	ic.stats.HandoffsIn++
	t := ic.newTransfer()
	dstCluster := ic.topo.AttachmentOf(msg.Dst).Cluster
	t.links = append(t.links[:0], ic.cubePath(to, dstCluster)...)
	t.links = append(t.links, ic.dnLink[msg.Dst])
	t.msg = msg
	t.onDelivered = onDel
	t.notifySh = origin
	t.holder = nil
	srcShard := ic.shardOf[from]
	peer := ic.peers[srcShard]
	t.onFirstHopStart = func(doneAt sim.Time) {
		ic.k.Post(srcShard, doneAt, func() { peer.boundaryFreed(from, to) })
	}
	t.links[0].request(t)
}

// boundaryFreed runs on the shard owning cube link a→b when the far
// shard's continuation has fully vacated the link's downstream buffer:
// the link may transmit its next queued message.
func (ic *Interconnect) boundaryFreed(a, b topo.ClusterID) {
	l := ic.cubeLnk[[2]topo.ClusterID{a, b}]
	l.into.occ--
	l.tryStart()
}

// carryBack reroutes a delivered message's completion notice to the
// shard whose state the callback closes over, posted at the final
// hop's start for its completion time. The callback receives nil
// rather than the message: the shell's lifetime ends on the delivering
// shard, and every async sender treats the notice as a pure signal.
func (ic *Interconnect) carryBack(t *transfer, doneAt sim.Time) {
	onDel := t.onDelivered
	t.onDelivered = nil
	ic.k.Post(int(t.notifySh), doneAt, func() { onDel(nil) })
}
