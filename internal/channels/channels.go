// Package channels implements VORX channels: named, low-latency,
// flow-controlled message-passing connections between processes
// (paper §4).
//
// Channels are set up with a single Open call (rendezvous by name
// through the object manager) and used with Read and Write. The
// kernel protocol is stop-and-wait: a Write sends the data and blocks
// the writing subprocess until the receiving kernel acknowledges it —
// which is also the flow control, since a second message cannot be
// sent until the first is processed. If the receiving kernel is out
// of side buffers (rare: "the kernel has many side buffers"), it asks
// the sender to retransmit when space frees.
//
// Writes larger than the hardware's 1060-byte limit are fragmented by
// the kernel and acknowledged as a unit. Specialized operations the
// paper mentions are provided too: multiplexed read (block until data
// arrives on any of several channels) and server name reuse (via
// objmgr's Serve/Connect modes).
//
// The calibrated cost constants reproduce Table 2: 303/341/474/997 µs
// per message at 4/64/256/1024 bytes.
package channels

import (
	"fmt"
	"slices"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/trace"
)

// Wire-format constants.
const (
	// HeaderBytes is the kernel protocol header carried by every
	// fragment on the wire.
	HeaderBytes = 32
	// AckBytes is the wire size of the software acknowledgement.
	AckBytes = 48
	// MaxFragment is the data payload carried per hardware message.
	MaxFragment = 1024
	// DefaultSideBuffers is the per-node side-buffer pool size.
	DefaultSideBuffers = 64
)

// WindowInflightGauge is the metrics gauge tracking current sliding-
// window occupancy. Both the channel layer (per-channel pending
// writes) and the vchan lane layer (per-lane unacked frames) publish
// under this name, so one dashboard signal covers window pressure at
// either protocol generation; the vchan balancer's load decisions use
// the same per-lane occupancy, fed through broker reports rather than
// the host-side registry so checked runs stay deterministic.
const WindowInflightGauge = "channels.window.inflight"

// Msg is an application-level message received from a channel.
type Msg struct {
	Size    int
	Payload any
}

// Service is the per-node channel machinery: the kernel's channel
// table, side-buffer pool, and protocol handlers.
type Service struct {
	f      *netif.IF
	mgr    *objmgr.Manager
	shells *Shells // the shard's wire-body free lists
	// ids and chans are the channel table: the ids of this node's
	// channel ends in ascending order, and the ends in the same order.
	// The ids have a slice of their own, so a lookup's binary search
	// reads contiguous memory (see ByID).
	ids   []uint64
	chans []*Channel
	// preopen stashes fragments that arrived before the local end's
	// Open finished registering (the opener's reply can beat the
	// subprocess getting scheduled).
	preopen map[uint64][]dataFrag

	// outFree recycles write records. A record is recycled only once
	// its ack timer is stopped and no pending or retained list can
	// reach it.
	outFree netif.FreeList[outMsg]

	sideBufFree int
	// starved lists (channel, message) pairs whose peer was told
	// "busy" and must be resumed when a side buffer frees, in
	// arrival order.
	starved []starveRec

	// End-to-end recovery. The base protocol's acks are flow control,
	// not fault tolerance: the HPC never drops, so no timeout was
	// needed. Under fault injection (message loss, peer crash) a write
	// can wait forever, so an optional end-to-end timeout retransmits
	// unacknowledged writes and, after maxRetries, declares the peer
	// dead. Zero (the default) keeps the original timerless behaviour.
	ackTimeout sim.Duration
	maxRetries int

	// window is the write window every channel end this service opens
	// or reincarnates starts with: 1, classic stop-and-wait, unless the
	// pipelined profile sets more (SetDefaultWindow).
	window int

	// Stats.
	Written     int
	Delivered   int
	Busies      int
	Retransmits int
	// TimeoutRetransmits counts writes re-sent by the end-to-end
	// timeout; PeerDeaths counts channel ends failed by retry
	// exhaustion or PeerDown.
	TimeoutRetransmits int
	PeerDeaths         int

	// verifier, when non-nil, observes every protocol step the chaos
	// harness's invariants need. Nil costs one predicate per step.
	verifier Verifier
}

// Verifier observes channel protocol steps; the invariant checker
// (internal/verify) implements it. All hooks run at the simulation
// layer and must not block or schedule events.
type Verifier interface {
	// ChanWrite fires when a write enters the pending window on the
	// sending end.
	ChanWrite(id uint64, name string, from topo.EndpointID, inc uint32, seq, size int, payload any)
	// ChanDeliver fires when a last fragment reaches the receiving
	// end's sequencer: dup marks a duplicate that was re-acked, not
	// re-delivered. from/inc are the fabric's provenance stamp.
	ChanDeliver(id uint64, name string, from topo.EndpointID, inc uint32, seq int, payload any, dup bool)
	// ChanAck fires when an ack matches a pending write on the sending
	// end at endpoint at.
	ChanAck(id uint64, at topo.EndpointID, seq int)
	// ChanRetain fires when an acknowledged write is retained at
	// endpoint at for possible replay.
	ChanRetain(id uint64, at topo.EndpointID, seq int)
	// ChanRelease fires when a retained write leaves the retained
	// list: requeued means it went back to pending for a rebind
	// replay, otherwise the stable mark released it.
	ChanRelease(id uint64, at topo.EndpointID, seq int, requeued bool)
	// ChanReincarnate fires when a channel end is reinstalled at
	// endpoint at (facing peer) from a checkpoint with the given
	// sequence cursors: deliveries from peer legitimately resume at
	// recvSeq, re-covering anything the checkpoint did not fold in.
	ChanReincarnate(id uint64, at, peer topo.EndpointID, sendSeq, recvSeq int)
}

// SetVerifier installs the invariant checker's protocol observer (nil
// to remove).
func (s *Service) SetVerifier(v Verifier) { s.verifier = v }

// wire message bodies
type dataFrag struct {
	ch         uint64
	seq        int // per-channel message sequence number
	size       int // payload bytes in this fragment
	total      int // total write size
	last       bool
	payload    any // carried on the last fragment
	retransmit bool
	tid        uint64 // originating write's trace ID (0 untraced)
	// src and inc are filled by the *receiver* from the fabric
	// message's source endpoint and incarnation stamp (netif stamps
	// every send), so held and replayed fragments keep their
	// provenance for the invariant checker.
	src topo.EndpointID
	inc uint32
}

// ackMsg names one write of a channel: the body of an ack, and of the
// busy and resume notices of side-buffer flow control.
type ackMsg struct {
	ch  uint64
	seq int
}

// Shells is one simulation shard's free lists of the per-write wire
// bodies: data fragments, and the acks, busy and resume notices that
// share ackMsg. core makes one per shard and hands it to every Service
// on the shard. A shell is sent as a pointer (boxing a pointer into an
// interface allocates nothing); the receiver reads it at interrupt
// level and puts it on its own shard's list, so each list has one
// owner and needs no lock. A sender whose list is empty
// allocates. Traffic that flows one way between shards moves every
// shell from the sender's shard to the receiver's, where the list's
// cap (netif.MaxFreeShells) leaves the surplus to the garbage
// collector, like a shell that dies en route (crashed node, dropped
// service).
type Shells struct {
	frags netif.FreeList[dataFrag]
	acks  netif.FreeList[ackMsg]
}

type closeMsg struct{ ch uint64 }

// starveRec is one busy-discarded message awaiting a resume.
type starveRec struct {
	ch  *Channel
	seq int
	tid uint64
}

// NewService attaches the channel service to a node's network
// interface. shells are the free lists of the node's simulation shard,
// shared by every Service on it.
func NewService(f *netif.IF, mgr *objmgr.Manager, shells *Shells) *Service {
	s := &Service{f: f, mgr: mgr, shells: shells, preopen: make(map[uint64][]dataFrag),
		sideBufFree: DefaultSideBuffers, window: 1}
	costs := f.Node().Costs()
	f.Register("chan", netif.Service{
		Cost: func(m *hpc.Message) sim.Duration {
			frag := m.Payload.(*dataFrag)
			return costs.ChanRecvProto + costs.KernelCopyTime(frag.size)
		},
		// Fragments riding a coalesced interrupt amortize the protocol
		// entry: only the kernel copy is per-message.
		BatchCost: func(m *hpc.Message) sim.Duration {
			frag := m.Payload.(*dataFrag)
			return costs.KernelCopyTime(frag.size)
		},
		Handle: s.handleData,
	})
	f.Register("chan.ack", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return costs.ChanAckProto },
		Handle: s.handleAck,
	})
	f.Register("chan.busy", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return costs.ChanAckProto },
		Handle: s.handleBusy,
	})
	f.Register("chan.resume", netif.Service{
		// Cost reads the shell before Handle puts it back.
		Cost: func(m *hpc.Message) sim.Duration {
			rm := m.Payload.(*ackMsg)
			if ch := s.ByID(rm.ch); ch != nil {
				if om := ch.pendingBySeq(rm.seq); om != nil {
					return costs.ChanSendProto + costs.KernelCopyTime(om.size)
				}
			}
			return costs.ChanAckProto
		},
		Handle: s.handleResume,
	})
	f.Register("chan.close", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return costs.ChanAckProto },
		Handle: s.handleClose,
	})
	return s
}

// tracer returns the node's unified event tracer (possibly nil).
func (s *Service) tracer() *trace.Tracer { return s.f.Node().Tracer() }

// lane is the trace lane a channel's events land on.
func (ch *Channel) lane() string { return "chan/" + ch.name }

// SetSideBuffers resizes the side-buffer pool (for ablation studies;
// the paper's kernel had "many"). Call before traffic flows.
func (s *Service) SetSideBuffers(n int) {
	if n < 1 {
		n = 1
	}
	s.sideBufFree = n
}

// SideBuffersFree returns the current side-buffer pool headroom.
func (s *Service) SideBuffersFree() int { return s.sideBufFree }

// FreeShells returns how many spare fragment and ack shells the
// service's shard holds.
func (s *Service) FreeShells() (frags, acks int) {
	return len(s.shells.frags), len(s.shells.acks)
}

// SetAckTimeout enables the end-to-end timeout: a write unacknowledged
// after d is retransmitted, and after maxRetries retransmissions the
// peer is declared dead — every channel to it fails with an error
// instead of hanging. d <= 0 disables (the default); maxRetries <= 0
// retries forever.
func (s *Service) SetAckTimeout(d sim.Duration, maxRetries int) {
	s.ackTimeout = d
	s.maxRetries = maxRetries
}

// PeerDown fails every open channel to endpoint ep: blocked readers
// and writers get an error return, pending timers stop. Called by the
// fault engine when a node is known crashed (the §3.1 policy: tell the
// survivors instead of letting them hang). Returns the number of
// channel ends failed.
func (s *Service) PeerDown(ep topo.EndpointID) int {
	n := 0
	for _, ch := range s.chans {
		if ch.peer == ep && !ch.closedRemote && !ch.managed {
			s.failPeer(ch)
			n++
		}
	}
	return n
}

// Channel is one end of a VORX channel.
type Channel struct {
	svc  *Service
	id   uint64
	name string
	peer topo.EndpointID

	// reader side
	ready     []Msg // side-buffered complete messages
	reader    *blockedReader
	readerRec blockedReader // reader's storage: one Read blocks at a time
	mux       *Mux

	// writer side. window is the number of un-acknowledged writes
	// allowed in flight: 1 is the classic stop-and-wait; larger
	// values are the kernel-level sliding window §4.1 suggests the
	// system should consider ("we should consider the use of a
	// sliding-window protocol for channels").
	window     int
	pending    []*outMsg // un-acknowledged writes, oldest first
	writerWake kern.Waker
	sendSeq    int

	// receiver-side sequencing: messages are accepted strictly in
	// order; anything ahead of recvSeq is busy-discarded and
	// retransmitted after its predecessors, which restores order.
	recvSeq int

	closedLocal  bool
	closedRemote bool

	// Supervision (internal/super). A managed end's peer death is
	// handled by checkpoint/restart migration: retry exhaustion keeps
	// retransmitting instead of failing the end, and PeerDown skips
	// it. With retain set, acknowledged writes are kept — payload and
	// all — until the supervisor advances the peer's stable checkpoint
	// mark, so a reincarnated peer can be replayed every message its
	// checkpoint missed.
	managed  bool
	retain   bool
	retained []*outMsg // acknowledged but not yet checkpoint-stable, oldest first

	// cdb-visible counters
	sent, received int
}

type blockedReader struct {
	wake kern.Waker
	msg  Msg
	ok   bool
}

type outMsg struct {
	seq     int
	size    int
	payload any
	timer   sim.Timer // end-to-end ack timeout (zero when disabled)
	tries   int       // timeout retransmissions so far
	tid     uint64    // trace ID threading this write through the stack
}

// SetDefaultWindow sets the service-wide write window (>=1): every
// channel end subsequently opened (or reincarnated after migration)
// starts with k un-acknowledged writes allowed in flight. Existing
// channel ends are untouched; use Channel.SetWindow for those.
func (s *Service) SetDefaultWindow(k int) {
	if k < 1 {
		k = 1
	}
	s.window = k
}

// SetWindow sets the channel end's write window (>=1). Call before
// writing; both ends keep their own windows independently.
func (ch *Channel) SetWindow(k int) {
	if k < 1 {
		k = 1
	}
	ch.window = k
}

// Open rendezvouses on name and returns the local channel end. It
// blocks sp until the peer's open arrives (paper: "two processes
// rendezvous on a channel by specifying its name in an open call").
func (s *Service) Open(sp *kern.Subprocess, name string, mode objmgr.Mode) *Channel {
	p := s.mgr.Open(sp, s.f, name, mode)
	ch := &Channel{svc: s, id: p.Chan, name: name, peer: p.Peer, window: s.window}
	s.install(ch)
	if frags := s.preopen[p.Chan]; len(frags) > 0 {
		delete(s.preopen, p.Chan)
		for i := range frags {
			s.deliverFrag(ch, &frags[i])
		}
	}
	return ch
}

// install enters ch in the channel table, in place of any end with
// the same id (the table keeps one end per id, the last installed).
func (s *Service) install(ch *Channel) {
	i, found := slices.BinarySearch(s.ids, ch.id)
	if found {
		s.chans[i] = ch
		return
	}
	s.ids = slices.Insert(s.ids, i, ch.id)
	s.chans = slices.Insert(s.chans, i, ch)
}

// Name returns the channel's rendezvous name.
func (ch *Channel) Name() string { return ch.name }

// ID returns the channel id shared by both ends.
func (ch *Channel) ID() uint64 { return ch.id }

// Peer returns the endpoint of the other end.
func (ch *Channel) Peer() topo.EndpointID { return ch.peer }

// Write sends size bytes (with payload attached for the application)
// and blocks sp until the protocol window has room again. With the
// default window of 1 this is the classic stop-and-wait: the write
// returns only when the receiving kernel has acknowledged. A larger
// window (SetWindow) keeps several writes in flight — the kernel-level
// sliding window §4.1 suggests considering. Either way the
// still-pending user buffers are what retransmission re-reads, so no
// kernel safety copy is ever needed.
func (ch *Channel) Write(sp *kern.Subprocess, size int, payload any) error {
	if ch.closedLocal {
		return fmt.Errorf("channels: write on closed channel %q", ch.name)
	}
	if ch.closedRemote {
		return fmt.Errorf("channels: peer closed channel %q", ch.name)
	}
	if size <= 0 {
		return fmt.Errorf("channels: write of %d bytes", size)
	}
	costs := ch.svc.f.Node().Costs()
	sp.Syscall(costs.ChanSendProto + costs.KernelCopyTime(size))
	om := ch.svc.outFree.Get()
	om.seq, om.size, om.payload = ch.sendSeq, size, payload
	ch.sendSeq++
	ch.pending = append(ch.pending, om)
	if tr := ch.svc.tracer(); tr.Enabled() {
		om.tid = tr.NewTraceID()
		node := ch.svc.f.Node().Name()
		tr.Emit(trace.KWrite, om.tid, node, ch.lane(),
			fmt.Sprintf("seq=%d %dB ->ep%d", om.seq, size, ch.peer))
		tr.Count("chan.written", 1)
		tr.Count("chan.bytes_written", float64(size))
		if ch.window > 1 {
			tr.Emit(trace.KWindow, om.tid, node, ch.lane(),
				fmt.Sprintf("credit seq=%d inflight=%d/%d", om.seq, len(ch.pending), ch.window))
			tr.GaugeSet(WindowInflightGauge, float64(len(ch.pending)))
		}
	}
	if v := ch.svc.verifier; v != nil {
		v.ChanWrite(ch.id, ch.name, ch.svc.f.Endpoint(), ch.svc.f.Node().Incarnation(),
			om.seq, size, payload)
	}
	if err := ch.sendFragments(sp, om); err != nil {
		retryForever := ch.svc.ackTimeout > 0 && ch.svc.maxRetries <= 0
		if !ch.managed && !retryForever {
			ch.dropPending(om)
			name := ch.name
			ch.svc.outFree.Put(om) // timer never armed, no list reaches it
			return fmt.Errorf("channels: write on %q: %w", name, err)
		}
		// Managed end (or an end configured to retry forever),
		// destination unreachable: that may be a transient partition,
		// and the supervisor — not this end — owns the death verdict.
		// Keep the write pending; the end-to-end timer retransmits it
		// until the fabric heals or the end is rebound.
	}
	ch.svc.armTimer(ch, om)
	for len(ch.pending) >= ch.window && !ch.closedRemote {
		ch.writerWake = sp.Block(kern.WaitOutput)
		sp.BlockNow("chan-write ", ch.name)
		sp.System(costs.SchedulerWake)
	}
	if ch.closedRemote {
		return fmt.Errorf("channels: peer closed channel %q", ch.name)
	}
	ch.sent++
	ch.svc.Written++
	return nil
}

// sendFragments pushes the write onto the wire in hardware-sized
// fragments. The subprocess blocks per fragment only on hardware
// output-section backpressure. An error (destination unreachable)
// aborts the remaining fragments.
func (ch *Channel) sendFragments(sp *kern.Subprocess, om *outMsg) error {
	for off := 0; off < om.size; off += MaxFragment {
		frag := ch.svc.fragment(ch, om, off)
		if tr := ch.svc.tracer(); tr.Enabled() {
			tr.Emit(trace.KFragment, om.tid, ch.svc.f.Node().Name(), ch.lane(),
				fmt.Sprintf("seq=%d off=%d %dB", om.seq, off, frag.size))
		}
		if err := ch.svc.f.SendCtx(sp, om.tid, ch.peer, "chan", frag.size+HeaderBytes, frag); err != nil {
			ch.svc.shells.frags.Put(frag) // never entered the fabric
			return err
		}
	}
	return nil
}

// fragment takes a shell from the free list and fills it with om's
// fragment at byte offset off.
func (s *Service) fragment(ch *Channel, om *outMsg, off int) *dataFrag {
	frag := s.shells.frags.Get() // zeroed: set only what differs
	frag.ch, frag.seq, frag.total, frag.tid = ch.id, om.seq, om.size, om.tid
	frag.size = min(om.size-off, MaxFragment)
	if off+frag.size >= om.size {
		frag.last, frag.payload = true, om.payload
	}
	return frag
}

// dropPending removes om from the un-acknowledged list.
func (ch *Channel) dropPending(om *outMsg) {
	if i := slices.Index(ch.pending, om); i >= 0 {
		ch.pending = slices.Delete(ch.pending, i, i+1)
	}
}

// armTimer (re)starts om's end-to-end ack timeout, if enabled. The
// timer is pinned to the node's current incarnation: a crash wipes the
// machine's memory, so if the node reboots before the timer fires, the
// pending write it guards no longer exists and must not retransmit
// under the new incarnation's stamp.
func (s *Service) armTimer(ch *Channel, om *outMsg) {
	if s.ackTimeout <= 0 {
		return
	}
	om.timer.Stop()
	inc := s.f.Node().Incarnation()
	om.timer = s.f.Node().Kernel().After(s.ackTimeout, func() {
		if s.f.Node().Incarnation() != inc {
			return // armed by a previous incarnation; its state died with it
		}
		s.timeoutFire(ch, om)
	})
}

// timeoutFire handles an expired ack timeout: retransmit the write, or
// after maxRetries declare the peer dead.
func (s *Service) timeoutFire(ch *Channel, om *outMsg) {
	if ch.pendingBySeq(om.seq) != om || ch.closedRemote || s.f.Node().Crashed() {
		return
	}
	om.tries++
	if s.maxRetries > 0 && om.tries > s.maxRetries && !ch.managed {
		// A managed end never declares its peer dead on its own: the
		// supervisor owns that verdict and will Rebind the end to the
		// reincarnated peer, at which point these retransmissions land.
		s.failPeer(ch)
		return
	}
	s.TimeoutRetransmits++
	s.retransmitAsync(ch, om)
	s.armTimer(ch, om)
}

// retransmitAsync re-sends every fragment of om from the kernel (the
// writing process is still blocked, so its buffer is intact).
func (s *Service) retransmitAsync(ch *Channel, om *outMsg) {
	if tr := s.tracer(); tr.Enabled() {
		tr.Emit(trace.KRetransmit, om.tid, s.f.Node().Name(), ch.lane(),
			fmt.Sprintf("seq=%d %dB tries=%d ->ep%d", om.seq, om.size, om.tries, ch.peer))
		tr.Count("chan.retransmits_sent", 1)
	}
	for off := 0; off < om.size; off += MaxFragment {
		frag := s.fragment(ch, om, off)
		frag.retransmit = true
		s.f.SendAsyncCtx(om.tid, ch.peer, "chan", frag.size+HeaderBytes, frag, nil)
	}
}

// remoteGone marks the remote end gone (graceful close or death) and
// fails every blocked operation on the channel.
func (ch *Channel) remoteGone() {
	ch.closedRemote = true
	for _, om := range ch.pending {
		om.timer.Stop()
	}
	// A gone peer can never honor a resume: purge its busy-discarded
	// messages from the starve list, else a freed side buffer is spent
	// asking a dead sender to retransmit while a live starved channel
	// waits for the next free — which may never come.
	ch.svc.dropStarved(ch)
	if ch.reader != nil {
		r := ch.reader
		ch.reader = nil
		r.ok = false
		r.wake.Wake()
	}
	if w := ch.writerWake; w.Armed() {
		ch.writerWake = kern.Waker{}
		w.Wake()
	}
	if mx := ch.mux; mx != nil && mx.waiting {
		mx.waiting = false
		mx.from = ch
		mx.failed = true
		mx.wake.Wake()
	}
}

// failPeer declares ch's peer dead: the channel fails as if the peer
// had closed it, so blocked readers and writers get an error return
// instead of a hang.
func (s *Service) failPeer(ch *Channel) {
	if ch.closedRemote {
		return
	}
	s.PeerDeaths++
	ch.remoteGone()
}

// SetManaged marks the channel end as supervised: its peer's death is
// the supervisor's verdict (confirmed by heartbeat timeouts), answered
// with Rebind to a reincarnated peer rather than a peer-death error.
// With retain set, acknowledged writes are kept until ReleaseRetained
// advances the peer's stable checkpoint mark, so a restart from
// checkpoint can be replayed everything the checkpoint missed.
// Retention can only be turned on, not off: the two ends of a
// supervised channel enable each other's retention in either order.
func (ch *Channel) SetManaged(retain bool) {
	ch.managed = true
	ch.retain = ch.retain || retain
}

// RetainedWrites reports how many acknowledged writes the end is
// holding for possible replay (0 unless retention is on).
func (ch *Channel) RetainedWrites() int { return len(ch.retained) }

// ByID returns the channel end with the given id on this node, or nil.
func (s *Service) ByID(id uint64) *Channel {
	if i, found := slices.BinarySearch(s.ids, id); found {
		return s.chans[i]
	}
	return nil
}

// Rebind repoints channel id's local end at the reincarnated peer
// endpoint and replays, in sequence order, every retained or pending
// write with seq >= resumeFrom — the peer checkpoint's high-water
// mark. Retained writes below the mark are released (the restored
// state already accounts for them); pending writes below it will be
// re-acknowledged as duplicates by the peer's reincarnated sequence
// state. Returns false when this node has no end of that channel.
func (s *Service) Rebind(id uint64, newPeer topo.EndpointID, resumeFrom int) bool {
	ch := s.ByID(id)
	if ch == nil {
		return false
	}
	ch.peer = newPeer
	s.releaseRetained(ch, resumeFrom)
	// Retained survivors become pending again: they are unacknowledged
	// as far as the reincarnated peer is concerned, and pending is what
	// the busy/resume and timeout machinery knows how to re-send.
	if len(ch.retained) > 0 {
		if v := s.verifier; v != nil {
			for _, om := range ch.retained {
				v.ChanRelease(ch.id, s.f.Endpoint(), om.seq, true)
			}
		}
		ch.pending = append(ch.retained, ch.pending...)
		ch.retained = nil
	}
	for _, om := range ch.pending {
		s.retransmitAsync(ch, om)
		s.armTimer(ch, om)
	}
	return true
}

// FailEnd fails channel id's local end with a peer-death error — the
// supervisor's path for a managed end whose confirmed-dead peer has no
// checkpointed task to reincarnate, so no Rebind is coming. Reports
// whether an end was actually failed.
func (s *Service) FailEnd(id uint64) bool {
	ch := s.ByID(id)
	if ch == nil || ch.closedRemote {
		return false
	}
	s.failPeer(ch)
	return true
}

// Reincarnate installs a channel end with pre-seeded protocol state on
// this node — the supervisor's half of endpoint migration. The end
// keeps its system-wide id and rendezvous name (no objmgr rendezvous:
// the supervisor already knows the pairing); sendSeq and recvSeq come
// from the checkpoint's high-water marks, so the restored subprocess's
// first write carries the next expected sequence number and duplicate
// replays from the surviving peer are re-acknowledged, not
// re-delivered.
func (s *Service) Reincarnate(id uint64, name string, peer topo.EndpointID, sendSeq, recvSeq int) *Channel {
	ch := &Channel{svc: s, id: id, name: name, peer: peer, window: s.window,
		sendSeq: sendSeq, recvSeq: recvSeq, managed: true}
	s.install(ch)
	if v := s.verifier; v != nil {
		v.ChanReincarnate(id, s.f.Endpoint(), peer, sendSeq, recvSeq)
	}
	if frags := s.preopen[id]; len(frags) > 0 {
		// The peer's rebind replay raced ahead of the reincarnation;
		// deliver the held fragments in arrival order.
		delete(s.preopen, id)
		for i := range frags {
			s.deliverFrag(ch, &frags[i])
		}
	}
	return ch
}

// ReleaseRetained drops channel id's retained writes with seq below
// stable — the peer's checkpoint has captured their effects, so no
// future restart can need them.
func (s *Service) ReleaseRetained(id uint64, stable int) {
	if ch := s.ByID(id); ch != nil {
		s.releaseRetained(ch, stable)
	}
}

func (s *Service) releaseRetained(ch *Channel, stable int) {
	keep := ch.retained[:0]
	for _, om := range ch.retained {
		if om.seq >= stable {
			keep = append(keep, om)
		} else {
			if v := s.verifier; v != nil {
				v.ChanRelease(ch.id, s.f.Endpoint(), om.seq, false)
			}
			s.outFree.Put(om) // acked and checkpoint-stable: fully dead
		}
	}
	for i := len(keep); i < len(ch.retained); i++ {
		ch.retained[i] = nil
	}
	ch.retained = keep
}

// pendingBySeq finds an un-acknowledged write.
func (ch *Channel) pendingBySeq(seq int) *outMsg {
	for _, om := range ch.pending {
		if om.seq == seq {
			return om
		}
	}
	return nil
}

// Read blocks sp until a message arrives and returns it. ok is false
// when the channel is closed and drained.
func (ch *Channel) Read(sp *kern.Subprocess) (Msg, bool) {
	costs := ch.svc.f.Node().Costs()
	sp.Syscall(0)
	if len(ch.ready) > 0 {
		m := ch.takeReady()
		// Side-buffered data costs an extra kernel-to-user copy.
		sp.System(costs.KernelCopyTime(m.Size))
		ch.received++
		if tr := ch.svc.tracer(); tr.Enabled() {
			tr.Emit(trace.KRead, 0, ch.svc.f.Node().Name(), ch.lane(),
				fmt.Sprintf("%dB buffered", m.Size))
		}
		return m, true
	}
	if ch.closedRemote || ch.closedLocal {
		return Msg{}, false
	}
	br := &ch.readerRec
	*br = blockedReader{}
	br.wake = sp.Block(kern.WaitInput)
	ch.reader = br
	ch.svc.resumeIfStarved(ch)
	sp.BlockNow("chan-read ", ch.name)
	sp.System(costs.SchedulerWake)
	if !br.ok {
		return Msg{}, false
	}
	ch.received++
	if tr := ch.svc.tracer(); tr.Enabled() {
		tr.Emit(trace.KRead, 0, ch.svc.f.Node().Name(), ch.lane(),
			fmt.Sprintf("%dB", br.msg.Size))
	}
	return br.msg, true
}

// takeReady pops the oldest side-buffered message and releases its
// side buffer, resuming a starved sender if one is waiting.
func (ch *Channel) takeReady() Msg {
	m := ch.ready[0]
	// Shift rather than re-slice, so the queue keeps its capacity.
	ch.ready = slices.Delete(ch.ready, 0, 1)
	ch.svc.releaseSideBuf()
	return m
}

func (s *Service) releaseSideBuf() {
	s.sideBufFree++
	s.traceSideBuf()
	if len(s.starved) > 0 {
		r := s.starved[0]
		s.starved = slices.Delete(s.starved, 0, 1)
		s.sendResume(r)
	}
}

// sendResume asks a starved sender to retransmit its busy-discarded
// message.
func (s *Service) sendResume(r starveRec) {
	if tr := s.tracer(); tr.Enabled() {
		tr.Emit(trace.KResume, r.tid, s.f.Node().Name(), r.ch.lane(),
			fmt.Sprintf("seq=%d ->ep%d", r.seq, r.ch.peer))
	}
	a := s.shells.acks.Get()
	a.ch, a.seq = r.ch.id, r.seq
	s.f.SendAsyncCtx(r.tid, r.ch.peer, "chan.resume", AckBytes, a, nil)
}

// dropStarved removes every starve record for ch (its peer is gone and
// can never retransmit).
func (s *Service) dropStarved(ch *Channel) {
	keep := s.starved[:0]
	for _, r := range s.starved {
		if r.ch != ch {
			keep = append(keep, r)
		}
	}
	s.starved = keep
}

// resumeIfStarved sends the retransmission request for ch's oldest
// busy-discarded message, if any: a newly blocked reader is as good as
// a free side buffer, since arriving data takes the fast path straight
// to it.
func (s *Service) resumeIfStarved(ch *Channel) {
	for i, r := range s.starved {
		if r.ch == ch {
			s.starved = append(s.starved[:i], s.starved[i+1:]...)
			s.sendResume(r)
			return
		}
	}
}

// handleData runs at interrupt level on the receiving node. The shell
// goes back on the shard's list once the fragment is delivered.
func (s *Service) handleData(m *hpc.Message) {
	frag := m.Payload.(*dataFrag)
	frag.src, frag.inc = m.Src, m.Inc
	if ch := s.ByID(frag.ch); ch != nil {
		s.deliverFrag(ch, frag)
	} else {
		// The local Open has not finished registering; hold a copy of
		// the fragment and replay it when it does.
		s.preopen[frag.ch] = append(s.preopen[frag.ch], *frag)
	}
	s.shells.frags.Put(frag)
}

// deliverFrag is the interrupt-level delivery logic for one fragment.
func (s *Service) deliverFrag(ch *Channel, frag *dataFrag) {
	if frag.retransmit {
		s.Retransmits++
	}
	if !frag.last {
		return
	}
	msg := Msg{Size: frag.total, Payload: frag.payload}

	if frag.seq < ch.recvSeq {
		// Duplicate of an already-accepted message: re-acknowledge.
		if v := s.verifier; v != nil {
			v.ChanDeliver(ch.id, ch.name, frag.src, frag.inc, frag.seq, frag.payload, true)
		}
		s.ack(ch, frag.seq, frag.tid)
		return
	}
	if frag.seq > ch.recvSeq {
		// Ahead of the stream (a predecessor was busy-discarded):
		// discard and schedule a retransmission behind it, which
		// restores order.
		s.busy(ch, frag.seq, frag.tid)
		return
	}

	if ch.reader != nil {
		// Fast path: the ISR copies straight to the waiting reader,
		// then the kernel acknowledges.
		r := ch.reader
		ch.reader = nil
		r.msg, r.ok = msg, true
		r.wake.Wake()
		s.accept(ch, frag, "fast-path")
		return
	}
	if ch.mux != nil {
		mx := ch.mux
		mx.deliver(ch, msg)
		s.accept(ch, frag, "mux")
		return
	}
	// No reader: side-buffer the message.
	if s.sideBufFree > 0 {
		s.sideBufFree--
		s.traceSideBuf()
		ch.ready = append(ch.ready, msg)
		s.accept(ch, frag, "side-buffer")
		return
	}
	// Out of side buffers: ask the sender to retransmit later.
	s.busy(ch, frag.seq, frag.tid)
}

// accept finishes an in-order delivery: counters, sequencing, ack.
func (s *Service) accept(ch *Channel, frag *dataFrag, how string) {
	s.Delivered++
	ch.recvSeq++
	if v := s.verifier; v != nil {
		v.ChanDeliver(ch.id, ch.name, frag.src, frag.inc, frag.seq, frag.payload, false)
	}
	if tr := s.tracer(); tr.Enabled() {
		tr.Emit(trace.KChanDel, frag.tid, s.f.Node().Name(), ch.lane(),
			fmt.Sprintf("seq=%d %dB %s", frag.seq, frag.total, how))
		tr.Count("chan.delivered", 1)
	}
	s.ack(ch, frag.seq, frag.tid)
}

func (s *Service) ack(ch *Channel, seq int, tid uint64) {
	a := s.shells.acks.Get()
	a.ch, a.seq = ch.id, seq
	s.f.SendAsyncCtx(tid, ch.peer, "chan.ack", AckBytes, a, nil)
}

func (s *Service) busy(ch *Channel, seq int, tid uint64) {
	// Suppress duplicate starve records for the same message (a
	// retransmission can race a second busy).
	for _, r := range s.starved {
		if r.ch == ch && r.seq == seq {
			return
		}
	}
	s.Busies++
	if tr := s.tracer(); tr.Enabled() {
		tr.Emit(trace.KBusy, tid, s.f.Node().Name(), ch.lane(),
			fmt.Sprintf("seq=%d sidebuf-free=%d", seq, s.sideBufFree))
		tr.Count("chan.busies", 1)
	}
	s.starved = append(s.starved, starveRec{ch: ch, seq: seq, tid: tid})
	a := s.shells.acks.Get()
	a.ch, a.seq = ch.id, seq
	s.f.SendAsyncCtx(tid, ch.peer, "chan.busy", AckBytes, a, nil)
}

// traceSideBuf exports the side-buffer pool headroom as a gauge.
func (s *Service) traceSideBuf() {
	if tr := s.tracer(); tr.Enabled() {
		tr.GaugeSet("chan.sidebuf."+s.f.Node().Name(), float64(s.sideBufFree))
	}
}

// handleAck runs at interrupt level on the writer's node.
func (s *Service) handleAck(m *hpc.Message) {
	ap := m.Payload.(*ackMsg)
	a := *ap
	s.shells.acks.Put(ap)
	ch := s.ByID(a.ch)
	if ch == nil {
		return
	}
	for i, om := range ch.pending {
		if om.seq == a.seq {
			om.timer.Stop()
			ch.pending = slices.Delete(ch.pending, i, i+1)
			if v := s.verifier; v != nil {
				v.ChanAck(ch.id, s.f.Endpoint(), a.seq)
			}
			if tr := s.tracer(); tr.Enabled() {
				tr.Emit(trace.KAck, om.tid, s.f.Node().Name(), ch.lane(),
					fmt.Sprintf("seq=%d", a.seq))
				if ch.window > 1 {
					tr.Emit(trace.KWindow, om.tid, s.f.Node().Name(), ch.lane(),
						fmt.Sprintf("advance seq=%d inflight=%d/%d", a.seq, len(ch.pending), ch.window))
					tr.GaugeSet(WindowInflightGauge, float64(len(ch.pending)))
				}
			}
			if ch.retain {
				// Keep the acknowledged write until the supervisor's
				// stable checkpoint mark passes it: an ack only means
				// the peer's kernel delivered it, not that the peer's
				// checkpoint captured it.
				ch.retained = append(ch.retained, om)
				if v := s.verifier; v != nil {
					v.ChanRetain(ch.id, s.f.Endpoint(), om.seq)
				}
			} else {
				// Timer stopped, off every list: recycle the record.
				s.outFree.Put(om)
			}
			break
		}
	}
	if w := ch.writerWake; w.Armed() && len(ch.pending) < ch.window {
		ch.writerWake = kern.Waker{}
		w.Wake()
	}
}

// handleBusy marks the pending write as awaiting a resume; the writer
// stays blocked (stop-and-wait already holds it).
func (s *Service) handleBusy(m *hpc.Message) {
	// Nothing to do beyond returning the shell: the data was discarded
	// by the receiver; the write will be retransmitted on resume.
	s.shells.acks.Put(m.Payload.(*ackMsg))
}

// handleResume retransmits the pending write from the kernel: the ISR
// cost already covered re-copying the user buffer (the process is
// still blocked, so the buffer is intact — no safety copy needed).
func (s *Service) handleResume(m *hpc.Message) {
	ap := m.Payload.(*ackMsg)
	rm := *ap
	s.shells.acks.Put(ap)
	ch := s.ByID(rm.ch)
	if ch == nil {
		return
	}
	pw := ch.pendingBySeq(rm.seq)
	if pw == nil {
		return
	}
	// Asynchronous kernel-level retransmission of each fragment.
	s.retransmitAsync(ch, pw)
	s.armTimer(ch, pw)
}

// handleClose marks the remote end closed and fails any blocked
// reader, writer, or mux waiter.
func (s *Service) handleClose(m *hpc.Message) {
	cm := m.Payload.(closeMsg)
	ch := s.ByID(cm.ch)
	if ch == nil {
		return
	}
	ch.remoteGone()
}

// Close tears the channel down and notifies the peer. Reads of
// already side-buffered data still succeed at the peer.
func (ch *Channel) Close(sp *kern.Subprocess) {
	if ch.closedLocal {
		return
	}
	costs := ch.svc.f.Node().Costs()
	sp.Syscall(costs.ChanAckProto)
	ch.closedLocal = true
	if tr := ch.svc.tracer(); tr.Enabled() {
		tr.Emit(trace.KClose, 0, ch.svc.f.Node().Name(), ch.lane(), "")
	}
	ch.svc.f.SendAsync(ch.peer, "chan.close", AckBytes, closeMsg{ch: ch.id}, nil)
}

// Closed reports whether either end has closed the channel.
func (ch *Channel) Closed() bool { return ch.closedLocal || ch.closedRemote }

// Mux is a multiplexed read: "a process blocks until data arrives
// from one of several channels" (paper §4).
type Mux struct {
	waiting bool
	wake    kern.Waker
	from    *Channel
	msg     Msg
	failed  bool // from's peer died or closed while we waited
}

// MuxRead blocks sp until any of the given channels has data, then
// returns the channel and message. Side-buffered data is consumed
// first (in argument order). If one channel's peer dies or closes
// while the reader waits, MuxRead returns that channel with ok=false
// — the others may still be live, so callers can drop the dead one
// and mux again. A nil channel with ok=false means every channel in
// the set is closed.
func MuxRead(sp *kern.Subprocess, chans ...*Channel) (*Channel, Msg, bool) {
	if len(chans) == 0 {
		return nil, Msg{}, false
	}
	svc := chans[0].svc
	costs := svc.f.Node().Costs()
	sp.Syscall(0)
	for _, ch := range chans {
		if len(ch.ready) > 0 {
			m := ch.takeReady()
			sp.System(costs.KernelCopyTime(m.Size))
			ch.received++
			return ch, m, true
		}
	}
	allClosed := true
	for _, ch := range chans {
		if !ch.closedRemote && !ch.closedLocal {
			allClosed = false
		}
	}
	if allClosed {
		return nil, Msg{}, false
	}
	mx := &Mux{waiting: true}
	mx.wake = sp.Block(kern.WaitInput)
	for _, ch := range chans {
		ch.mux = mx
		svc.resumeIfStarved(ch)
	}
	sp.BlockNow("chan-mux", "")
	for _, ch := range chans {
		ch.mux = nil
	}
	sp.System(costs.SchedulerWake)
	if mx.from == nil {
		return nil, Msg{}, false
	}
	if mx.failed {
		// One muxed channel's peer died (or closed) mid-wait: return
		// it with ok=false so the caller can drop that channel and
		// re-mux on the survivors instead of treating the whole set as
		// dead.
		return mx.from, Msg{}, false
	}
	mx.from.received++
	return mx.from, mx.msg, true
}

// deliver hands an arriving message to the mux waiter.
func (mx *Mux) deliver(ch *Channel, m Msg) {
	if !mx.waiting {
		return
	}
	mx.waiting = false
	mx.from = ch
	mx.msg = m
	mx.wake.Wake()
}

// EndState is the per-channel-end state cdb reports (paper §6.1): the
// channel name, which endpoints it connects, message counts in each
// direction, and whether the application is blocked on it.
type EndState struct {
	Name          string
	Local, Peer   topo.EndpointID
	Sent          int
	Received      int
	Buffered      int // side-buffered messages awaiting a read
	ReaderBlocked bool
	WriterBlocked bool
	Closed        bool
}

// Snapshot returns the state of every channel end on this node, for
// the communications debugger.
func (s *Service) Snapshot() []EndState {
	var out []EndState
	for _, ch := range s.chans {
		out = append(out, EndState{
			Name:          ch.name,
			Local:         s.f.Endpoint(),
			Peer:          ch.peer,
			Sent:          ch.sent,
			Received:      ch.received,
			Buffered:      len(ch.ready),
			ReaderBlocked: ch.reader != nil || ch.mux != nil,
			WriterBlocked: ch.writerWake.Armed(),
			Closed:        ch.Closed(),
		})
	}
	return out
}
