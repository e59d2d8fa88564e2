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
// The boundary protocol rides on three physical facts: a cube hop costs
// at least HopFixed, and a hop of a message of 20 bytes or more, whose
// wire time is at least HopFixed too, at least 2·HopFixed; and every
// message's first hop is its source's up-link, inside its own cluster
// (a multicast's copies leave from the replication buffer that hop
// fills), so whatever its size a message posts nothing across shards
// sooner than two hops after it is sent. The group's narrow promise is
// no more than the first and its wide one no more than the second, and
// the wide one is in force only while no short message is in the
// fabric: each short message holds the narrow promise from the moment
// TrySend accepts it until it lands in its destination's input section
// (see short). When shard A starts transmitting over a boundary link
// a→b it already knows the completion time T, at least the promise in
// force away, so everything the hop causes elsewhere is posted at its
// start:
//
//   - "arrive": the message's arrival in b's cluster buffer
//     (remoteArrive on shard B, at T);
//   - "hop done": the end of the hop on shard A, at T (handoffDone).
//     The buffer stays reserved on shard A until shard B's
//     continuation vacates it.
//
// Shard B self-routes the rest of the way from cluster b (sound
// because sharded mode forbids link faults, so routes are the
// canonical dimension-order paths both shards agree on). When the
// continuation starts its own first hop at U — again knowing its
// completion U+d — it posts "freed" back to shard A at U+d, which
// releases the buffer and re-arms the boundary link. A delivered
// message whose onDelivered callback closes over another shard's state
// gets the same treatment: the final down-link hop posts the
// completion notice home at its start (carryBack), however far away
// home is. Every such signal is a hop's completion posted at the hop's
// start, so it clears the promise in force, and none needs rollback.
//
// One record per boundary link. ConnectShards gives every cube link
// from one of the fabric's clusters into a foreign one a boundary
// record with its three callbacks ("arrive", "hop done", "freed")
// bound once, so a hand-off allocates nothing. The record carries the in-flight message's fields: shard A
// writes them in handoff, shard B reads them in remoteArrive. It is
// the one piece of fabric memory two shard goroutines share, and
// reusing it is race-free because the link's single-slot downstream
// buffer admits one message at a time:
//
//   - shard A writes the record again only after "freed" has run
//     there, since only "freed" empties the buffer tryStart waits for;
//   - shard B posts "freed" after its last read of the record, and the
//     post passes through shard A's inbox lock, which orders that read
//     before shard A's next write;
//   - "freed" lands at U+d >= T+HopFixed, after "hop done" at T, so
//     "hop done" reads the record's transfer before the next hand-off
//     refills it. Shard B never touches that field, and "hop done"
//     touches none of the fields shard B reads at the same virtual
//     instant.
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
	"math"

	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// ConnectShards registers this fabric as shard self of a sharded
// simulation: shardOf maps every cluster to its owning shard and peers
// lists all shard fabrics (peers[self] == ic). Call once, before any
// traffic, on every shard's fabric. The fabrics' kernels must belong
// to one sim.Group whose narrow promise is at most the cost model's
// HopFixed and whose wide one at most 2·HopFixed: every cross-shard
// signal ("arrive" riding a hop forward, "freed" riding it back, a
// delivery notice going home) is posted with exactly one hop of slack,
// HopFixed plus the message's wire time.
func (ic *Interconnect) ConnectShards(self int, shardOf []int, peers []*Interconnect) {
	g := ic.k.Group()
	if g == nil {
		panic("hpc: ConnectShards on a kernel outside a sim.Group")
	}
	narrow, wide := g.Lookahead()
	if narrow > ic.costs.HopFixed {
		panic("hpc: group's narrow lookahead exceeds one cube hop (HopFixed)")
	}
	if wide > 2*ic.costs.HopFixed {
		panic("hpc: group's wide lookahead exceeds two cube hops (2·HopFixed)")
	}
	ic.shardSelf = self
	ic.peers = peers
	if ic.sharded() {
		// WireTime(n) = n·WirePerByte is under HopFixed for n under
		// ceil(HopFixed/WirePerByte), and at every size on a free wire.
		ic.shortBelow = math.MaxInt
		if w := ic.costs.WirePerByte; w > 0 {
			ic.shortBelow = int((ic.costs.HopFixed + w - 1) / w)
		}
	}
	for _, l := range ic.cube {
		// Bind records only on the links this shard runs into a
		// foreign cluster: a link leaving a foreign cluster never
		// carries a transfer here.
		if l == nil || shardOf[l.from] != self || shardOf[l.to] == self {
			continue
		}
		b := &boundary{home: self, far: shardOf[l.to], to: l.to}
		peer := peers[b.far]
		b.arrive = func() { peer.remoteArrive(b) }
		b.hopDone = func() { l.handoffDone(b.t) }
		b.freed = func() {
			l.into.occ--
			l.tryStart()
		}
		l.bnd = b
	}
}

// boundary is the hand-off record of one boundary link: a cube link
// from one of this fabric's clusters into a foreign shard's cluster.
// Its signals are bound once, by ConnectShards; the message fields
// describe the one message in the link's downstream buffer (see the
// package comment for why sharing them between shards is race-free).
type boundary struct {
	home, far int            // the shards running the link and the cluster it enters
	to        topo.ClusterID // the cluster it enters

	// Written by handoff on the home shard. t is read there only, by
	// hopDone; msg, origin and onDel are read by remoteArrive on the far
	// shard.
	t      *transfer
	msg    *Message
	origin int32
	onDel  func(*Message)

	arrive  func() // far shard, at the hop's end: remoteArrive(b)
	hopDone func() // home shard, at the hop's end: the link ends the hop
	freed   func() // home shard: the continuation has left the buffer
}

// sharded reports whether this fabric is one shard of several.
func (ic *Interconnect) sharded() bool { return len(ic.peers) > 1 }

// short reports whether a message of size bytes is short on a sharded
// fabric: its wire time is under HopFixed, so a hop of it may post
// across shards with less than the group's wide promise. Each short
// message holds the group's narrow promise (sim.Kernel.HoldNarrow) from
// the moment the fabric accepts it until it lands in its destination's
// input section, after its last post; a hand-off carries the hold to
// the far shard. A multicast's root holds until fan-out, and each
// branch from then until its delivery. A serial fabric counts nothing.
func (ic *Interconnect) short(size int) bool { return size < ic.shortBelow }

// handoff ships a transfer whose next cube hop, over b's link, lands
// in a foreign shard's cluster. The transmission itself (duration dur,
// already charged with wire time and slowdown by tryStart) is simulated
// here on the owning shard; the arrival is posted to the destination
// shard at the completion time, which clears the promise in force
// because dur >= HopFixed, and dur >= 2·HopFixed unless the message is
// short and holds the narrow promise. The local bookkeeping happens at
// the same virtual instant via hopDone. A delivery notice rides along
// to the far shard, which posts it home when the final hop starts
// (carryBack).
func (ic *Interconnect) handoff(b *boundary, t *transfer, dur sim.Duration) {
	doneAt := ic.k.Now().Add(dur)
	ic.stats.HandoffsOut++
	b.t = t
	b.msg = t.msg
	b.origin = t.notifySh
	b.onDel = t.onDelivered
	t.onDelivered = nil
	ic.k.Post(b.far, doneAt, b.arrive)
	ic.k.At(doneAt, b.hopDone)
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
// transmission over b's link completes: the message now sits in that
// link's downstream buffer, owned by the sending shard. A fresh
// transfer carries it the rest of the way along the canonical route;
// when its first onward hop starts — completion time in hand — tryStart
// posts b's "freed" signal back to the sender's shard.
func (ic *Interconnect) remoteArrive(b *boundary) {
	ic.stats.HandoffsIn++
	t := ic.newTransfer()
	t.msg = b.msg
	t.onDelivered = b.onDel
	t.notifySh = b.origin
	dst := t.msg.Dst
	t.links = ic.appendCubeRoute(t.links[:0], b.to, ic.topo.AttachmentOf(dst).Cluster)
	t.links = append(t.links, &ic.dnLink[dst])
	t.inbound = b
	t.links[0].request(t)
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
