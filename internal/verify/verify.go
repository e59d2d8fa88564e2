// Package verify is the chaos harness's invariant checker: one
// structural observer wired into the channel protocol, the node
// interfaces, and the supervisor, watching a faulted run for the
// promises the system makes even while partitions, gray failures, and
// crashes are in flight:
//
//   - I1, fencing: once a machine incarnation has been superseded (its
//     task migrated away after a confirmed death), no frame it sent may
//     be accepted by the channel layer. On the fenced path netif
//     refuses such frames structurally; the classic silence-trusting
//     path lets them through, which is exactly what the checker
//     demonstrates.
//   - I2, exactly-once + FIFO: per channel direction, deliveries
//     arrive in sequence order, nothing is delivered twice (except the
//     declared replay window after a reincarnation), and a replayed
//     payload is byte-equal to the original.
//   - I3, no acked-but-lost writes: a write whose ack matched the
//     sender's pending window was delivered to the receiving sequencer
//     first, and what was delivered is what was written.
//   - I4, retained-buffer conservation: acknowledged writes enter the
//     retained list exactly once and leave it exactly once (stable
//     release or rebind requeue) — no double-retain, no release of
//     something never retained.
//
// The checker is pure observation: it costs no virtual time, schedules
// nothing, and a run with the checker attached is bit-identical to one
// without. Violations are recorded in event order, so two runs of the
// same seed produce identical reports.
package verify

import (
	"fmt"
	"hash/fnv"
	"io"

	"hpcvorx/internal/core"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Violation is one observed invariant breach, in virtual-time order.
type Violation struct {
	At     sim.Time
	Rule   string // "stale-incarnation", "fifo", "double-delivery", ...
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%10v  %-18s %s", v.At, v.Rule, v.Detail)
}

// dirState tracks one direction of one channel: the writes of one
// (canonical) writer identity and their deliveries at the other end.
type dirState struct {
	expect    int            // next in-order seq the receiver should accept
	delivered map[int]uint64 // seq -> payload fingerprint
	redeliver map[int]bool   // seqs a reincarnation made re-deliverable
	written   map[int]uint64 // seq -> payload fingerprint at the writer
	retained  map[int]bool   // seqs currently on the retained list
}

// Checker implements channels.Verifier, netif.Verifier, and
// super.Verifier over one shared model of the run. Create with New (or
// Attach), wire it into each layer, run the simulation, then read
// Violations.
type Checker struct {
	k    *sim.Kernel
	dirs map[uint64]map[topo.EndpointID]*dirState
	// canon maps a migrated end's new endpoint back to the identity it
	// continues, per channel, so a reincarnated writer's replayed
	// writes land in the same direction state as the originals.
	canon map[uint64]map[topo.EndpointID]topo.EndpointID
	// floors holds per-channel incarnation floors for superseded
	// endpoints: frames from ep stamped below the floor are I1
	// violations if the channel layer accepts them.
	floors map[uint64]map[topo.EndpointID]uint32
	// machFloors holds the supervisor's broadcast fences.
	machFloors map[topo.EndpointID]uint32
	// vchans models the virtualization layer (see vchan.go).
	vchans map[uint64]*vchanState

	viols []Violation

	// Stats.
	Writes         int
	Delivered      int
	Dups           int
	Acked          int
	Retains        int
	Releases       int
	FramesAccepted int
	FramesRefused  int
	Migrations     int
	Fences         int
	// Virtualization-layer stats.
	VWrites    int
	VDelivered int
	VDups      int
	VAcked     int
	VMints     int
	VReplays   int
	VStale     int
}

// New creates a checker clocked by k (violations are stamped with
// virtual time).
func New(k *sim.Kernel) *Checker {
	return &Checker{
		k:          k,
		dirs:       make(map[uint64]map[topo.EndpointID]*dirState),
		canon:      make(map[uint64]map[topo.EndpointID]topo.EndpointID),
		floors:     make(map[uint64]map[topo.EndpointID]uint32),
		machFloors: make(map[topo.EndpointID]uint32),
	}
}

// Attach creates a checker and wires it into every machine's channel
// service and node interface. The supervisor (if any) must be wired
// separately with its SetVerifier — verify cannot import super.
func Attach(sys *core.System) *Checker {
	c := New(sys.K)
	for _, m := range sys.Machines() {
		m.Chans.SetVerifier(c)
		m.IF.SetVerifier(c)
	}
	return c
}

// Violations returns every breach observed so far, in event order.
func (c *Checker) Violations() []Violation { return c.viols }

// Ok reports whether the run has been invariant-clean so far.
func (c *Checker) Ok() bool { return len(c.viols) == 0 }

// Summary is a one-line account of what the checker watched.
func (c *Checker) Summary() string {
	s := fmt.Sprintf("verify: %d violations (%d writes, %d delivered, %d dups, %d acked, "+
		"%d retained/%d released, %d frames ok/%d fenced, %d migrations, %d fences)",
		len(c.viols), c.Writes, c.Delivered, c.Dups, c.Acked,
		c.Retains, c.Releases, c.FramesAccepted, c.FramesRefused, c.Migrations, c.Fences)
	if c.vchans != nil {
		s += fmt.Sprintf(" [vchan: %d writes, %d delivered, %d dups, %d acks, %d terms, %d replays, %d stale-refused]",
			c.VWrites, c.VDelivered, c.VDups, c.VAcked, c.VMints, c.VReplays, c.VStale)
	}
	return s
}

// Report writes the summary and every violation.
func (c *Checker) Report(w io.Writer) {
	fmt.Fprintln(w, c.Summary())
	for _, v := range c.viols {
		fmt.Fprintln(w, " ", v)
	}
}

func (c *Checker) violate(rule, format string, args ...any) {
	c.viols = append(c.viols, Violation{At: c.k.Now(), Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// canonFor resolves ep to the channel-end identity it continues.
func (c *Checker) canonFor(id uint64, ep topo.EndpointID) topo.EndpointID {
	if m := c.canon[id]; m != nil {
		if orig, ok := m[ep]; ok {
			return orig
		}
	}
	return ep
}

func (c *Checker) dir(id uint64, writer topo.EndpointID) *dirState {
	m := c.dirs[id]
	if m == nil {
		m = make(map[topo.EndpointID]*dirState)
		c.dirs[id] = m
	}
	ds := m[writer]
	if ds == nil {
		ds = &dirState{
			delivered: make(map[int]uint64),
			redeliver: make(map[int]bool),
			written:   make(map[int]uint64),
			retained:  make(map[int]bool),
		}
		m[writer] = ds
	}
	return ds
}

// fingerprint hashes a payload's rendered form. Payloads in the
// simulation are small values with stable formatting, so the
// fingerprint is deterministic across runs.
func fingerprint(payload any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", payload)
	return h.Sum64()
}

// ---- channels.Verifier ----

// ChanWrite records the write's fingerprint; a reincarnated task that
// regenerates a different payload for the same sequence number breaks
// the Checkpointer replay contract.
func (c *Checker) ChanWrite(id uint64, name string, from topo.EndpointID, inc uint32, seq, size int, payload any) {
	c.Writes++
	ds := c.dir(id, c.canonFor(id, from))
	fp := fingerprint(payload)
	if prev, ok := ds.written[seq]; ok {
		if prev != fp {
			c.violate("replay-divergence", "channel %q seq %d: regenerated write differs from original", name, seq)
		}
		return
	}
	ds.written[seq] = fp
}

// ChanDeliver checks I1 (no superseded incarnation's frame accepted)
// and I2 (FIFO, exactly-once, replay equality).
func (c *Checker) ChanDeliver(id uint64, name string, from topo.EndpointID, inc uint32, seq int, payload any, dup bool) {
	if fl := c.floors[id]; fl != nil {
		if min := fl[from]; min > 0 && inc < min {
			c.violate("stale-incarnation", "channel %q seq %d: frame from superseded ep %d inc %d < floor %d accepted",
				name, seq, from, inc, min)
		}
	}
	ds := c.dir(id, c.canonFor(id, from))
	fp := fingerprint(payload)
	if dup {
		c.Dups++
		prev, ok := ds.delivered[seq]
		switch {
		case !ok:
			c.violate("phantom-dup", "channel %q seq %d: duplicate of a never-delivered message re-acked", name, seq)
		case prev != fp:
			c.violate("payload-divergence", "channel %q seq %d: duplicate differs from original delivery", name, seq)
		}
		return
	}
	c.Delivered++
	if prev, ok := ds.delivered[seq]; ok {
		if !ds.redeliver[seq] {
			c.violate("double-delivery", "channel %q seq %d delivered twice", name, seq)
		} else if prev != fp {
			c.violate("payload-divergence", "channel %q seq %d: replay differs from original delivery", name, seq)
		}
		delete(ds.redeliver, seq)
	}
	if seq != ds.expect {
		c.violate("fifo", "channel %q: delivered seq %d, expected %d", name, seq, ds.expect)
	}
	if seq >= ds.expect {
		ds.expect = seq + 1
	}
	ds.delivered[seq] = fp
	if w, ok := ds.written[seq]; ok && w != fp {
		c.violate("corruption", "channel %q seq %d: delivered payload differs from what was written", name, seq)
	}
}

// ChanAck checks I3: an ack that matched the sender's pending window
// must follow a delivery of that sequence number.
func (c *Checker) ChanAck(id uint64, at topo.EndpointID, seq int) {
	c.Acked++
	ds := c.dir(id, c.canonFor(id, at))
	if _, ok := ds.delivered[seq]; !ok {
		c.violate("acked-but-lost", "channel %d seq %d: write acked but never delivered", id, seq)
	}
}

// ChanRetain checks I4: a write enters the retained list at most once.
func (c *Checker) ChanRetain(id uint64, at topo.EndpointID, seq int) {
	c.Retains++
	ds := c.dir(id, c.canonFor(id, at))
	if ds.retained[seq] {
		c.violate("double-retain", "channel %d seq %d retained twice", id, seq)
	}
	ds.retained[seq] = true
}

// ChanRelease checks I4: only retained writes leave the retained list.
func (c *Checker) ChanRelease(id uint64, at topo.EndpointID, seq int, requeued bool) {
	c.Releases++
	ds := c.dir(id, c.canonFor(id, at))
	if !ds.retained[seq] {
		c.violate("release-unretained", "channel %d seq %d released but was never retained (requeued=%v)",
			id, seq, requeued)
	}
	delete(ds.retained, seq)
}

// ChanReincarnate rolls the peer direction's delivery cursor back to
// the checkpoint mark: the replay window [recvSeq, expect) may be
// delivered once more, byte-identical.
func (c *Checker) ChanReincarnate(id uint64, at, peer topo.EndpointID, sendSeq, recvSeq int) {
	ds := c.dir(id, c.canonFor(id, peer))
	for seq := range ds.delivered {
		if seq >= recvSeq {
			ds.redeliver[seq] = true
		}
	}
	if recvSeq < ds.expect {
		ds.expect = recvSeq
	}
}

// ---- netif.Verifier ----

// FrameAccepted counts fabric-level activity (no invariant: which
// frames a minority-side machine accepts before the fence reaches it
// is the partition's business, not the checker's).
func (c *Checker) FrameAccepted(dst, src topo.EndpointID, inc uint32, service string) {
	c.FramesAccepted++
}

// FrameRefused sanity-checks the fence itself: a refusal must actually
// be below the floor.
func (c *Checker) FrameRefused(dst, src topo.EndpointID, inc, min uint32, service string) {
	c.FramesRefused++
	if inc >= min {
		c.violate("bad-refusal", "ep %d refused a frame from %d at inc %d >= floor %d", dst, src, inc, min)
	}
}

// ---- super.Verifier ----

// MachineFenced records the supervisor's broadcast floor for ep.
func (c *Checker) MachineFenced(ep topo.EndpointID, minInc uint32) {
	c.Fences++
	if c.machFloors[ep] < minInc {
		c.machFloors[ep] = minInc
	}
}

// TaskMigrated installs the I1 floor: frames on ch from staleEP at or
// below staleInc now belong to a superseded incarnation, and aliases
// newEP to the identity it continues.
func (c *Checker) TaskMigrated(ch uint64, staleEP topo.EndpointID, staleInc uint32, newEP topo.EndpointID) {
	c.Migrations++
	fl := c.floors[ch]
	if fl == nil {
		fl = make(map[topo.EndpointID]uint32)
		c.floors[ch] = fl
	}
	if fl[staleEP] < staleInc+1 {
		fl[staleEP] = staleInc + 1
	}
	al := c.canon[ch]
	if al == nil {
		al = make(map[topo.EndpointID]topo.EndpointID)
		c.canon[ch] = al
	}
	al[newEP] = c.canonFor(ch, staleEP)
	// The dead incarnation's retention buffers died with its machine:
	// the reincarnated end starts retaining from scratch, so the same
	// sequence numbers may legitimately enter retention again.
	c.dir(ch, c.canonFor(ch, staleEP)).retained = make(map[int]bool)
}
