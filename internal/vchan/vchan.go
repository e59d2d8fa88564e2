// Package vchan virtualizes VORX channels: a bounded set of physical
// lanes hosted on broker nodes, onto which thousands of logical
// vchannels are multiplexed, each placement identified by a
// monotonically increasing term minted by a deterministic balancer
// (the Milvus PChannel/VChannel/Term model mapped onto the HPC/VORX
// stack).
//
// The paper's channels are point-to-point objects pinned to the node
// pair that created them; "millions of users" on a finite fabric
// needs many logical channels per physical resource and the ability
// to move them while traffic flows. A vchannel is a named
// producer→consumer stream. Its frames travel producer → broker →
// consumer: the broker hop is what makes placement a first-class,
// movable assignment. Placement changes — crash-driven or
// load-driven — follow one discipline: seal the producer, drain the
// old lane to a stable mark (every write acked end-to-end), bump the
// term, and replay the retained suffix on the new lane. Frames
// carrying a stale term are refused structurally at the broker and at
// the consumer, the same fencing PR 6 applied to incarnations, so a
// slow writer that missed the move cannot interleave stale data.
//
// Reliability is end-to-end: the consumer acks cumulatively straight
// back to the producer (delayed/coalesced, PR 5 style), the producer
// retains every unacked write and retransmits go-back-N on the
// current placement. A lane bounds the unacked frames each producing
// machine may have on it (the per-lane window), so tenants sharing a
// lane contend for window credit — the multiplexing cost E17
// measures.
//
// Everything here is deterministic: the balancer runs on a simulated
// machine, all control traffic is ordinary fabric messages with
// retransmit-until-acked delivery, and load signals come from broker
// reports in virtual time, never from host-side metrics.
package vchan

import (
	"fmt"
	"io"
	"sort"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/trace"
)

// Wire-format constants.
const (
	// FrameHeaderBytes is the virtualization header on every data
	// frame: vchannel id, term, sequence, provenance.
	FrameHeaderBytes = 40
	// AckBytes is the wire size of the cumulative end-to-end ack.
	AckBytes = 48
	// CtrlBytes is the wire size of a balancer control message.
	CtrlBytes = 64
)

// Protocol timing, the same for every fabric.
const (
	// ackDelay is the consumer's ack-coalescing horizon. A reader
	// flushes early once it owes max(1, Window/2) acks.
	ackDelay = 100 * sim.Microsecond
	// retransTimeout is the producer's go-back-N timer.
	retransTimeout = 1500 * sim.Microsecond
	// ctrlRetry is the balancer's control-message retransmit period.
	ctrlRetry = 400 * sim.Microsecond
	// drainTimeout bounds how long a migration waits for the old
	// placement to drain before forcing the move.
	drainTimeout = 2 * sim.Millisecond
	// reportEvery is the broker load-report period, which is also the
	// balancer's failure-sweep period. silenceAfter is how long
	// without a report before a broker is deemed dead. Reports share
	// the wire with data, so under saturation a healthy broker's
	// report can queue behind a full window of frames; the silence
	// threshold must sit above that worst case or load itself looks
	// like death and the balancer churns placements between
	// equally-congested brokers. Silence is the balancer's only
	// death detector: it does not consult the supervisor.
	reportEvery  = 500 * sim.Microsecond
	silenceAfter = 25 * reportEvery
	// autoRatio is the hot/cold lane byte ratio above which the
	// automatic balancer moves one vchannel.
	autoRatio = 4.0
)

// Config tunes the fabric. The zero value of any field selects the
// documented default.
type Config struct {
	// Brokers lists node indices that host lanes. Nil means allocate
	// BrokerCount nodes (via resmgr when one is bound, else the
	// highest-numbered nodes not hosting a declared endpoint).
	Brokers []int
	// BrokerCount is how many brokers to allocate when Brokers is nil
	// (default 2).
	BrokerCount int
	// LanesPerBroker is the number of physical lanes each broker
	// hosts (default 2).
	LanesPerBroker int
	// Window caps unacked frames per (producing machine, lane)
	// (default 8, mirroring the pipelined profile).
	Window int
	// AutoEvery enables the automatic load balancer: every AutoEvery
	// the hottest lane is compared against the coldest and one
	// vchannel migrated when the byte ratio exceeds autoRatio. Zero
	// means manual/DSL rebalance only.
	AutoEvery sim.Duration
}

func (c *Config) fill() {
	if c.BrokerCount == 0 {
		c.BrokerCount = 2
	}
	if c.LanesPerBroker == 0 {
		c.LanesPerBroker = 2
	}
	if c.Window == 0 {
		c.Window = 8
	}
}

// Verifier observes vchannel protocol steps; the invariant checker
// (internal/verify) implements it. Hooks are host-side observers and
// must not block or schedule events.
type Verifier interface {
	// VChanWrite fires when the producer assigns a sequence number to
	// a write, at the term it will first be sent under.
	VChanWrite(v uint64, name string, seq, size int, payload any, term uint32)
	// VChanDeliver fires at the consumer. dup marks a redundant frame
	// that was suppressed and re-acked, not handed to the
	// application.
	VChanDeliver(v uint64, name string, seq int, payload any, term uint32, dup bool)
	// VChanAck fires when the producer processes a cumulative ack
	// releasing everything through upTo.
	VChanAck(v uint64, name string, upTo int)
	// VChanTermMint fires when the balancer mints a new term for a
	// placement.
	VChanTermMint(v uint64, name string, term uint32)
	// VChanExpect fires when the consumer adopts a new term; resume
	// is its delivery cursor at that instant (the next sequence it
	// will accept).
	VChanExpect(v uint64, name string, term uint32, resume int)
	// VChanReplay fires when the producer replays its retained suffix
	// [from,to] on a new placement at term.
	VChanReplay(v uint64, name string, term uint32, from, to int)
	// VChanStale fires when a frame is structurally refused for
	// carrying term < cur at the named point ("broker" or
	// "consumer").
	VChanStale(v uint64, where string, term, cur uint32)
}

// wire bodies

// vFrame is one data frame. hop 0 is producer→broker, hop 1 is
// broker→consumer; the explicit hop removes any ambiguity when one
// machine plays both roles.
type vFrame struct {
	v    uint64
	name string
	term uint32
	seq  int
	size int
	pay  any
	src  topo.EndpointID // producer endpoint, for acks and nacks
	hop  uint8
	tid  uint64
}

// vAck is the consumer's cumulative ack: everything through upTo is
// delivered.
type vAck struct {
	v    uint64
	upTo int
}

// vNack tells a producer its frame was refused: minTerm is the
// lowest term the refuser would accept (0 for "no assignment here").
// Nacks are advisory — correctness rests on the retransmit timer and
// the balancer's control plane — but they quiet a stale writer's
// timer until its new placement arrives.
type vNack struct {
	v       uint64
	minTerm uint32
}

type ctrlKind uint8

const (
	ctrlSeal ctrlKind = iota + 1
	ctrlPlace
	ctrlAssign
	ctrlRevoke
	ctrlExpect
	ctrlAck
	ctrlDrained
	ctrlReport
)

func (k ctrlKind) String() string {
	switch k {
	case ctrlSeal:
		return "seal"
	case ctrlPlace:
		return "place"
	case ctrlAssign:
		return "assign"
	case ctrlRevoke:
		return "revoke"
	case ctrlExpect:
		return "expect"
	case ctrlAck:
		return "ctrl-ack"
	case ctrlDrained:
		return "drained"
	case ctrlReport:
		return "report"
	}
	return "?"
}

// ctrlMsg is the single control-plane wire body; which fields are
// meaningful depends on kind.
type ctrlMsg struct {
	kind ctrlKind
	id   uint64 // ctrl correlation id (seal/place/assign/revoke/expect ↔ ack)
	v    uint64
	name string
	term uint32
	lane uint32
	// broker is the new placement's broker (place); consumer is the
	// delivery target (assign); from is the reply-to endpoint.
	broker   topo.EndpointID
	consumer topo.EndpointID
	from     topo.EndpointID
	// report payload.
	inc       uint32
	laneBytes []laneBytes
	vBytes    []vchanBytes
}

type laneBytes struct {
	lane  uint32
	bytes int64
}

type vchanBytes struct {
	v     uint64
	bytes int64
}

// Msg is one application-level message read from a vchannel.
type Msg struct {
	Size    int
	Payload any
	Seq     int
}

// reg is one declared vchannel: name, fixed producer and consumer
// machines, and the fabric-wide id.
type reg struct {
	id   uint64
	name string
	prod *core.Machine
	cons *core.Machine
}

// Fabric is the system-wide virtualization layer: one Service per
// machine plus the balancer.
type Fabric struct {
	sys    *core.System
	cfg    Config
	res    *resmgr.VORX
	bal    *Balancer
	svcs   map[topo.EndpointID]*Service
	order  []*Service // deterministic iteration order
	regs   []*reg
	byName map[string]*reg
	vf     Verifier
	nextID uint64
}

// Enable attaches the virtualization layer to every machine in the
// system. Declare vchannels next, then Start.
func Enable(sys *core.System, cfg Config) *Fabric {
	return EnableWith(sys, cfg, nil)
}

// EnableWith is Enable with a resource manager: broker nodes are then
// allocated through it (owner "vchan") so placement respects node
// ownership.
func EnableWith(sys *core.System, cfg Config, res *resmgr.VORX) *Fabric {
	cfg.fill()
	f := &Fabric{
		sys:    sys,
		cfg:    cfg,
		res:    res,
		svcs:   make(map[topo.EndpointID]*Service),
		byName: make(map[string]*reg),
	}
	for _, m := range sys.Machines() {
		s := newService(f, m)
		f.svcs[m.EP] = s
		f.order = append(f.order, s)
	}
	f.bal = newBalancer(f, sys.Host(0))
	return f
}

// Declare registers a vchannel by name with fixed producer and
// consumer machines. Must run before Start. Returns the vchannel id.
func (f *Fabric) Declare(name string, prod, cons *core.Machine) uint64 {
	if f.byName[name] != nil {
		panic("vchan: duplicate Declare " + name)
	}
	if f.bal.started {
		panic("vchan: Declare after Start")
	}
	f.nextID++
	r := &reg{id: f.nextID, name: name, prod: prod, cons: cons}
	f.regs = append(f.regs, r)
	f.byName[name] = r
	// Producer and consumer state exist from declaration so frames
	// and control messages can never race an Open.
	f.svcs[prod.EP].addWriter(r)
	f.svcs[cons.EP].addReader(r, prod.EP)
	return r.id
}

// Start chooses brokers, builds lanes, places every declared
// vchannel, and arms the report/sweep beacons. Traffic may start
// immediately after; writers block until their first placement
// arrives (microseconds of control traffic).
func (f *Fabric) Start() {
	f.bal.start()
}

// On returns the machine's vchan service.
func (f *Fabric) On(m *core.Machine) *Service { return f.svcs[m.EP] }

// Balancer returns the placement balancer.
func (f *Fabric) Balancer() *Balancer { return f.bal }

// SetVerifier installs the invariant checker's observer on every
// service and the balancer (nil to remove).
func (f *Fabric) SetVerifier(v Verifier) { f.vf = v }

// Service is the per-machine vchan machinery: producer windows and
// retained writes, consumer cursors and ack coalescing, and — on
// broker machines — lane assignments with term fencing.
type Service struct {
	fab *Fabric
	m   *core.Machine
	f   *netif.IF

	writers map[uint64]*Writer
	readers map[uint64]*Reader
	worder  []*Writer
	rorder  []*Reader

	// lanes is producer-side window accounting per lane this machine
	// currently sends on.
	lanes map[uint32]*laneState

	// broker state: assignments and term floors. Wiped on crash — a
	// rebooted broker holds nothing until the balancer re-assigns.
	assigns map[uint64]*assignment
	floors  map[uint64]uint32
	// per-lane and per-vchan forwarded bytes since the last report.
	fwdLane  map[uint32]int64
	fwdVChan map[uint64]int64
	stopRep  func()

	// Stats.
	StaleRefused int // frames refused for a stale term (broker+consumer)
	Forwarded    int // frames relayed broker→consumer
	Dups         int // redundant frames suppressed at the consumer
	Gaps         int // out-of-order frames dropped (go-back-N restores)
	Retransmits  int // producer window retransmissions
}

type laneState struct {
	inflight int
	waiters  []kern.Waker
}

// Dump writes the service's live protocol state — writer windows,
// reader cursors, lane occupancy, broker assignments — for debugging
// and the `vorx vchan` report.
func (s *Service) Dump(out io.Writer) {
	for _, w := range s.worder {
		fmt.Fprintf(out, "%s: writer %s term=%d lane=%d seq=%d ackHigh=%d pending=%d placed=%v sealed=%v stale=%v timer=%v\n",
			s.m.Name(), w.name, w.term, w.lane, w.seq, w.ackHigh, len(w.pending), w.placed, w.sealed, w.stale, w.timer.Pending())
	}
	for _, r := range s.rorder {
		fmt.Fprintf(out, "%s: reader %s term=%d expect=%d ready=%d delivered=%d\n",
			s.m.Name(), r.name, r.term, r.expect, len(r.ready), r.Delivered)
	}
	ids := make([]uint32, 0, len(s.lanes))
	for id := range s.lanes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l := s.lanes[id]
		if l.inflight != 0 || len(l.waiters) != 0 {
			fmt.Fprintf(out, "%s: lane%d inflight=%d waiters=%d\n", s.m.Name(), id, l.inflight, len(l.waiters))
		}
	}
	vs := make([]uint64, 0, len(s.assigns))
	for v := range s.assigns {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, v := range vs {
		a := s.assigns[v]
		fmt.Fprintf(out, "%s: assign v=%d term=%d lane=%d\n", s.m.Name(), v, a.term, a.lane)
	}
}

type assignment struct {
	term     uint32
	lane     uint32
	consumer topo.EndpointID
}

// Writer is the producing end of a vchannel. One writing subprocess
// at a time.
type Writer struct {
	svc  *Service
	id   uint64
	name string

	seq     int // next sequence to mint
	ackHigh int // highest cumulatively acked
	pending []*vWrite

	term   uint32
	lane   uint32
	broker topo.EndpointID
	placed bool
	sealed bool
	stale  bool // nacked above our term: hold fire until the next place

	timer   sim.Timer
	backoff uint8 // consecutive timeouts without ack progress
}

type vWrite struct {
	seq     int
	size    int
	pay     any
	tid     uint64
	charged bool
	lane    uint32
}

// Reader is the consuming end of a vchannel.
type Reader struct {
	svc  *Service
	id   uint64
	name string
	prod topo.EndpointID

	expect int // next sequence to accept
	term   uint32
	ready  []Msg
	wake   kern.Waker

	owed    int
	ackTick sim.Timer

	// Delivered counts in-order application deliveries.
	Delivered int
}

func newService(f *Fabric, m *core.Machine) *Service {
	s := &Service{
		fab:      f,
		m:        m,
		f:        m.IF,
		writers:  make(map[uint64]*Writer),
		readers:  make(map[uint64]*Reader),
		lanes:    make(map[uint32]*laneState),
		assigns:  make(map[uint64]*assignment),
		floors:   make(map[uint64]uint32),
		fwdLane:  make(map[uint32]int64),
		fwdVChan: make(map[uint64]int64),
	}
	costs := m.Kern.Costs()
	m.IF.Register("vchan.data", netif.Service{
		Cost: func(m *hpc.Message) sim.Duration {
			fr := m.Payload.(*vFrame)
			return costs.ChanRecvProto + costs.KernelCopyTime(fr.size)
		},
		BatchCost: func(m *hpc.Message) sim.Duration {
			fr := m.Payload.(*vFrame)
			return costs.KernelCopyTime(fr.size)
		},
		Handle: s.handleData,
	})
	m.IF.Register("vchan.ack", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return costs.ChanAckProto },
		Handle: s.handleAck,
	})
	m.IF.Register("vchan.nack", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return costs.ChanAckProto },
		Handle: s.handleNack,
	})
	m.IF.Register("vchan.ctrl", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return costs.ChanAckProto },
		Handle: s.handleCtrl,
	})
	// A crash wipes broker assignments, floors, producer placements,
	// and consumer cursors: a rebooted machine knows nothing until
	// the balancer re-teaches it.
	m.Kern.OnCrash(s.onCrash)
	return s
}

func (s *Service) tracer() *trace.Tracer { return s.m.Kern.Tracer() }

func (s *Service) vf() Verifier { return s.fab.vf }

func (s *Service) addWriter(r *reg) *Writer {
	// ackHigh is -1 until the first cumulative ack: sequence numbers
	// start at 0, so the zero value would swallow the ack for seq 0 —
	// fatal at window 1, where that ack is the only source of credit.
	w := &Writer{svc: s, id: r.id, name: r.name, ackHigh: -1}
	s.writers[r.id] = w
	s.worder = append(s.worder, w)
	return w
}

func (s *Service) addReader(r *reg, prod topo.EndpointID) *Reader {
	rd := &Reader{svc: s, id: r.id, name: r.name, prod: prod}
	s.readers[r.id] = rd
	s.rorder = append(s.rorder, rd)
	return rd
}

// OpenWriter returns the producing end of a declared vchannel. Must
// be called on the declared producer machine.
func (s *Service) OpenWriter(sp *kern.Subprocess, name string) *Writer {
	r := s.fab.byName[name]
	if r == nil || r.prod.EP != s.f.Endpoint() {
		panic("vchan: OpenWriter(" + name + ") on the wrong machine")
	}
	sp.Syscall(s.m.Kern.Costs().Syscall)
	return s.writers[r.id]
}

// OpenReader returns the consuming end of a declared vchannel. Must
// be called on the declared consumer machine.
func (s *Service) OpenReader(sp *kern.Subprocess, name string) *Reader {
	r := s.fab.byName[name]
	if r == nil || r.cons.EP != s.f.Endpoint() {
		panic("vchan: OpenReader(" + name + ") on the wrong machine")
	}
	sp.Syscall(s.m.Kern.Costs().Syscall)
	return s.readers[r.id]
}

// lane returns this machine's window accounting for a lane id.
func (s *Service) lane(id uint32) *laneState {
	l := s.lanes[id]
	if l == nil {
		l = &laneState{}
		s.lanes[id] = l
	}
	return l
}

// producer side ------------------------------------------------------

func (w *Writer) canSend() bool {
	if !w.placed || w.sealed || w.stale {
		return false
	}
	return w.svc.lane(w.lane).inflight < w.svc.fab.cfg.Window
}

// Write sends one message on the vchannel. It blocks while the
// placement is unsettled (sealed for migration, fenced stale, or not
// yet placed) and while the lane window is full — lane contention is
// the multiplexing cost. The write is retained until the consumer's
// cumulative ack covers it; a placement change replays it at the new
// term.
func (w *Writer) Write(sp *kern.Subprocess, size int, payload any) error {
	s := w.svc
	costs := s.m.Kern.Costs()
	sp.Syscall(costs.ChanSendProto + costs.KernelCopyTime(size))
	for !w.canSend() {
		l := s.lane(w.lane)
		wake := sp.Block(kern.WaitOutput)
		l.waiters = append(l.waiters, wake)
		sp.BlockNow("vchan/", w.name)
	}
	tid := s.tracer().NewTraceID()
	rec := &vWrite{seq: w.seq, size: size, pay: payload, tid: tid}
	w.seq++
	w.pending = append(w.pending, rec)
	if v := s.vf(); v != nil {
		v.VChanWrite(w.id, w.name, rec.seq, size, payload, w.term)
	}
	s.charge(w, rec)
	s.tracer().Emit(trace.KWrite, tid, s.m.Name(), "vchan/"+w.name,
		fmt.Sprintf("seq=%d term=%d lane=%d", rec.seq, w.term, w.lane))
	fr := &vFrame{v: w.id, name: w.name, term: w.term, seq: rec.seq,
		size: size, pay: payload, src: s.f.Endpoint(), hop: 0, tid: tid}
	if err := s.f.SendCtx(sp, tid, w.broker, "vchan.data", size+FrameHeaderBytes, fr); err != nil {
		// Routing failure (downed link, partition): the write is
		// already retained, so the window timer re-offers it until the
		// path heals or the balancer moves the placement. Loss, not an
		// application error.
		s.tracer().Emit(trace.KBlocked, tid, s.m.Name(), "vchan/"+w.name,
			fmt.Sprintf("seq=%d unroutable", rec.seq))
	}
	w.armTimer()
	return nil
}

func (s *Service) charge(w *Writer, rec *vWrite) {
	l := s.lane(w.lane)
	l.inflight++
	rec.charged = true
	rec.lane = w.lane
	s.tracer().GaugeSet(channels.WindowInflightGauge, float64(l.inflight))
}

func (s *Service) uncharge(rec *vWrite) {
	if !rec.charged {
		return
	}
	rec.charged = false
	l := s.lane(rec.lane)
	l.inflight--
	s.tracer().GaugeSet(channels.WindowInflightGauge, float64(l.inflight))
	s.wakeLane(l)
}

// wakeLane releases blocked writers while window credit is free. The
// woken writer re-checks canSend itself, so spurious wakes are safe.
func (s *Service) wakeLane(l *laneState) {
	for len(l.waiters) > 0 && l.inflight < s.fab.cfg.Window {
		wake := l.waiters[0]
		l.waiters = l.waiters[1:]
		wake.Wake()
	}
}

// wakeAll releases every blocked writer on every lane (placement
// changed; canSend is re-evaluated by each).
func (s *Service) wakeAll() {
	ids := make([]uint32, 0, len(s.lanes))
	for id := range s.lanes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l := s.lanes[id]
		for len(l.waiters) > 0 {
			wake := l.waiters[0]
			l.waiters = l.waiters[1:]
			wake.Wake()
		}
	}
}

func (w *Writer) armTimer() {
	s := w.svc
	w.timer.Stop()
	rto := retransTimeout << w.backoff
	w.timer = s.m.Kern.Kernel().After(rto, func() { s.retransFire(w) })
}

// retransFire is the producer's recovery timer: re-offer the OLDEST
// retained write on the current placement at the current term, with
// exponential backoff until an ack makes progress. Head-only, not a
// full go-back-N burst: the fabric never silently drops, so under
// congestion the whole window is merely late, and resending all of it
// every timeout amplifies the overload until duplicate traffic crowds
// out fresh frames and acks entirely (congestion collapse). One head
// frame per timeout plus the consumer's cumulative ack recovers real
// loss (crash, partition, gray) one hole at a time. Runs while sealed
// too — retransmission is what drains a lossy lane — but not while
// stale (the placement is known dead; wait for the balancer).
func (s *Service) retransFire(w *Writer) {
	if s.m.Kern.Crashed() || len(w.pending) == 0 || !w.placed || w.stale {
		return
	}
	rec := w.pending[0]
	fr := &vFrame{v: w.id, name: w.name, term: w.term, seq: rec.seq,
		size: rec.size, pay: rec.pay, src: s.f.Endpoint(), hop: 0, tid: rec.tid}
	s.f.SendAsyncCtx(rec.tid, w.broker, "vchan.data", rec.size+FrameHeaderBytes, fr, nil)
	s.tracer().Emit(trace.KRetransmit, rec.tid, s.m.Name(), "vchan/"+w.name,
		fmt.Sprintf("seq=%d term=%d backoff=%d", rec.seq, w.term, w.backoff))
	s.Retransmits++
	if w.backoff < 5 {
		w.backoff++
	}
	w.armTimer()
}

func (s *Service) handleAck(m *hpc.Message) {
	a := m.Payload.(*vAck)
	w := s.writers[a.v]
	if w == nil || a.upTo <= w.ackHigh {
		return
	}
	for len(w.pending) > 0 && w.pending[0].seq <= a.upTo {
		rec := w.pending[0]
		copy(w.pending, w.pending[1:])
		w.pending[len(w.pending)-1] = nil
		w.pending = w.pending[:len(w.pending)-1]
		s.uncharge(rec)
		s.tracer().Emit(trace.KAck, rec.tid, s.m.Name(), "vchan/"+w.name,
			fmt.Sprintf("seq=%d", rec.seq))
	}
	w.ackHigh = a.upTo
	w.backoff = 0 // ack progress: the path is alive, retransmit briskly again
	if v := s.vf(); v != nil {
		v.VChanAck(w.id, w.name, a.upTo)
	}
	if len(w.pending) == 0 {
		w.timer.Stop()
		if w.sealed {
			s.sendDrained(w)
		}
	} else {
		w.armTimer()
	}
}

func (s *Service) handleNack(m *hpc.Message) {
	n := m.Payload.(*vNack)
	w := s.writers[n.v]
	if w == nil {
		return
	}
	// Only a nack proving our term is superseded silences the timer;
	// a "no assignment" nack (minTerm 0, broker rebooted) keeps the
	// timer running until the balancer re-teaches the broker — and
	// resets the backoff: a nack is proof the path is alive, so the
	// earlier silence was loss, not congestion.
	if n.minTerm > w.term {
		w.stale = true
		w.timer.Stop()
		return
	}
	if w.backoff > 0 {
		w.backoff = 0
		if w.timer.Pending() {
			w.armTimer()
		}
	}
}

// sendDrained tells the balancer the sealed placement reached its
// stable mark: every retained write is acked. Unreliable by design —
// the balancer's drain timeout is the fallback.
func (s *Service) sendDrained(w *Writer) {
	s.f.SendAsyncCtx(0, s.fab.bal.ep, "vchan.ctrl", CtrlBytes,
		&ctrlMsg{kind: ctrlDrained, v: w.id, name: w.name, term: w.term,
			from: s.f.Endpoint()}, nil)
	s.tracer().Emit(trace.KMigrate, 0, s.m.Name(), "vchan/"+w.name,
		fmt.Sprintf("drained term=%d stable=%d", w.term, w.ackHigh))
}

// broker side --------------------------------------------------------

func (s *Service) handleData(m *hpc.Message) {
	fr := m.Payload.(*vFrame)
	if fr.hop == 0 {
		s.brokerData(fr)
	} else {
		s.consumerData(fr)
	}
}

func (s *Service) brokerData(fr *vFrame) {
	a := s.assigns[fr.v]
	cur := s.floors[fr.v]
	if a != nil && a.term > cur {
		cur = a.term
	}
	if a == nil || fr.term != a.term {
		if fr.term < cur {
			s.refuseStale(fr, "broker", cur)
		} else {
			// No (current) assignment: either this broker rebooted
			// and awaits re-assignment, or the control plane is ahead
			// of the producer. Nack with what we know.
			s.f.SendAsyncCtx(fr.tid, fr.src, "vchan.nack", AckBytes,
				&vNack{v: fr.v, minTerm: cur}, nil)
		}
		return
	}
	s.fwdLane[a.lane] += int64(fr.size)
	s.fwdVChan[fr.v] += int64(fr.size)
	s.Forwarded++
	fwd := *fr
	fwd.hop = 1
	s.tracer().Emit(trace.KHop, fr.tid, s.m.Name(), laneName(a.lane),
		fmt.Sprintf("fwd %s seq=%d term=%d", fr.name, fr.seq, fr.term))
	s.f.SendAsyncCtx(fr.tid, a.consumer, "vchan.data", fr.size+FrameHeaderBytes, &fwd, nil)
}

func (s *Service) refuseStale(fr *vFrame, where string, cur uint32) {
	s.StaleRefused++
	s.tracer().Count("vchan.stale_refused", 1)
	s.tracer().Emit(trace.KMigrate, fr.tid, s.m.Name(), "vchan/"+fr.name,
		fmt.Sprintf("refused stale term=%d cur=%d at=%s seq=%d", fr.term, cur, where, fr.seq))
	if v := s.vf(); v != nil {
		v.VChanStale(fr.v, where, fr.term, cur)
	}
	s.f.SendAsyncCtx(fr.tid, fr.src, "vchan.nack", AckBytes,
		&vNack{v: fr.v, minTerm: cur}, nil)
}

func laneName(id uint32) string { return fmt.Sprintf("lane%d", id) }

// consumer side ------------------------------------------------------

func (s *Service) consumerData(fr *vFrame) {
	r := s.readers[fr.v]
	if r == nil {
		return // misrouted; nothing sane to do
	}
	if fr.term < r.term {
		s.refuseStale(fr, "consumer", r.term)
		return
	}
	if fr.term > r.term {
		// Our expect ctrl is still in flight; the producer's timer
		// will re-offer this frame after we adopt the term.
		return
	}
	switch {
	case fr.seq < r.expect:
		// Redundant (retransmit or cross-term replay of delivered
		// data): suppress, re-assert our cumulative position.
		s.Dups++
		if v := s.vf(); v != nil {
			v.VChanDeliver(fr.v, r.name, fr.seq, fr.pay, fr.term, true)
		}
		s.flushAck(r)
	case fr.seq > r.expect:
		// Gap: go-back-N will restore order; remind the producer
		// where we stand.
		s.Gaps++
		s.flushAck(r)
	default:
		if v := s.vf(); v != nil {
			v.VChanDeliver(fr.v, r.name, fr.seq, fr.pay, fr.term, false)
		}
		r.expect++
		r.Delivered++
		r.ready = append(r.ready, Msg{Size: fr.size, Payload: fr.pay, Seq: fr.seq})
		s.tracer().Emit(trace.KChanDel, fr.tid, s.m.Name(), "vchan/"+r.name,
			fmt.Sprintf("seq=%d term=%d", fr.seq, fr.term))
		if r.wake.Armed() {
			wake := r.wake
			r.wake = kern.Waker{}
			wake.Wake()
		}
		r.owed++
		if r.owed >= max(1, s.fab.cfg.Window/2) {
			s.flushAck(r)
		} else {
			s.armAck(r)
		}
	}
}

func (s *Service) armAck(r *Reader) {
	if r.ackTick.Pending() {
		return
	}
	r.ackTick = s.m.Kern.Kernel().After(ackDelay, func() {
		if s.m.Kern.Crashed() {
			return
		}
		if r.owed > 0 {
			s.flushAck(r)
		}
	})
}

func (s *Service) flushAck(r *Reader) {
	r.owed = 0
	r.ackTick.Stop()
	s.f.SendAsyncCtx(0, r.prod, "vchan.ack", AckBytes,
		&vAck{v: r.id, upTo: r.expect - 1}, nil)
}

// Read consumes the next in-order message, blocking until one
// arrives.
func (r *Reader) Read(sp *kern.Subprocess) (Msg, error) {
	s := r.svc
	costs := s.m.Kern.Costs()
	sp.Syscall(costs.ChanRecvProto)
	for len(r.ready) == 0 {
		r.wake = sp.Block(kern.WaitInput)
		sp.BlockNow("vchan/", r.name)
	}
	msg := r.ready[0]
	copy(r.ready, r.ready[1:])
	r.ready[len(r.ready)-1] = Msg{}
	r.ready = r.ready[:len(r.ready)-1]
	sp.System(costs.KernelCopyTime(msg.Size))
	s.tracer().Emit(trace.KRead, 0, s.m.Name(), "vchan/"+r.name,
		fmt.Sprintf("seq=%d", msg.Seq))
	return msg, nil
}

// control plane (machine side) --------------------------------------

func (s *Service) handleCtrl(m *hpc.Message) {
	c := m.Payload.(*ctrlMsg)
	if s.fab.bal != nil && s.f.Endpoint() == s.fab.bal.ep {
		switch c.kind {
		case ctrlAck:
			s.fab.bal.handleCtrlAck(c.id)
			return
		case ctrlDrained:
			s.fab.bal.handleDrained(c)
			return
		case ctrlReport:
			s.fab.bal.handleReport(c)
			return
		}
	}
	switch c.kind {
	case ctrlSeal:
		if w := s.writers[c.v]; w != nil && c.term == w.term && w.placed {
			if !w.sealed {
				w.sealed = true
				s.tracer().Emit(trace.KMigrate, 0, s.m.Name(), "vchan/"+w.name,
					fmt.Sprintf("sealed term=%d pending=%d", w.term, len(w.pending)))
			}
			if len(w.pending) == 0 {
				s.sendDrained(w)
			}
		}
	case ctrlPlace:
		s.applyPlace(c)
	case ctrlAssign:
		s.assigns[c.v] = &assignment{term: c.term, lane: c.lane, consumer: c.consumer}
		if c.term > s.floors[c.v] {
			s.floors[c.v] = c.term
		}
		s.tracer().Emit(trace.KMigrate, 0, s.m.Name(), laneName(c.lane),
			fmt.Sprintf("assign %s term=%d", c.name, c.term))
	case ctrlRevoke:
		if a := s.assigns[c.v]; a != nil && a.term <= c.term {
			delete(s.assigns, c.v)
		}
		if c.term+1 > s.floors[c.v] {
			s.floors[c.v] = c.term + 1
		}
		s.tracer().Emit(trace.KMigrate, 0, s.m.Name(), "vchan/"+c.name,
			fmt.Sprintf("revoke term<=%d", c.term))
	case ctrlExpect:
		if r := s.readers[c.v]; r != nil && c.term > r.term {
			r.term = c.term
			if v := s.vf(); v != nil {
				v.VChanExpect(r.id, r.name, c.term, r.expect)
			}
			s.tracer().Emit(trace.KMigrate, 0, s.m.Name(), "vchan/"+r.name,
				fmt.Sprintf("expect term=%d resume=%d", c.term, r.expect))
		}
	default:
		return
	}
	// Every machine-side ctrl is idempotent and always acked; the
	// balancer retransmits until this lands.
	s.f.SendAsyncCtx(0, c.from, "vchan.ctrl", CtrlBytes,
		&ctrlMsg{kind: ctrlAck, id: c.id, from: s.f.Endpoint()}, nil)
}

// applyPlace installs a new placement at the producer and replays the
// retained suffix under the new term.
func (s *Service) applyPlace(c *ctrlMsg) {
	w := s.writers[c.v]
	if w == nil || c.term <= w.term {
		return
	}
	w.term = c.term
	w.lane = c.lane
	w.broker = c.broker
	w.placed = true
	w.sealed = false
	w.stale = false
	w.backoff = 0
	s.tracer().GaugeSet("vchan.term", float64(c.term))
	// Re-home the window charge: retained writes move with the
	// placement. The new lane may transiently exceed its window —
	// migration does not drop retained data — but no new write is
	// admitted until the charge falls below the window again.
	for _, rec := range w.pending {
		if rec.charged {
			l := s.lane(rec.lane)
			l.inflight--
			s.wakeLane(l)
		}
		rec.charged = true
		rec.lane = w.lane
	}
	nl := s.lane(w.lane)
	nl.inflight += len(w.pending)
	s.tracer().Emit(trace.KMigrate, 0, s.m.Name(), "vchan/"+w.name,
		fmt.Sprintf("placed term=%d lane=%d replay=%d", w.term, w.lane, len(w.pending)))
	if len(w.pending) > 0 {
		if v := s.vf(); v != nil {
			v.VChanReplay(w.id, w.name, w.term,
				w.pending[0].seq, w.pending[len(w.pending)-1].seq)
		}
		for _, rec := range w.pending {
			fr := &vFrame{v: w.id, name: w.name, term: w.term, seq: rec.seq,
				size: rec.size, pay: rec.pay, src: s.f.Endpoint(), hop: 0, tid: rec.tid}
			s.f.SendAsyncCtx(rec.tid, w.broker, "vchan.data", rec.size+FrameHeaderBytes, fr, nil)
		}
		w.armTimer()
	}
	s.wakeAll()
}

// crash handling -----------------------------------------------------

// onCrash wipes everything a dead machine knew. Producers and
// consumers lose their vchannel state for good (an application-level
// restart story is out of scope — the storm schedules crash brokers);
// brokers lose assignments and floors, which is safe: the balancer
// re-assigns at the current term, and anything older is refused once
// the floor is re-taught.
func (s *Service) onCrash() {
	s.assigns = make(map[uint64]*assignment)
	s.floors = make(map[uint64]uint32)
	s.fwdLane = make(map[uint32]int64)
	s.fwdVChan = make(map[uint64]int64)
	for _, w := range s.worder {
		w.timer.Stop()
		w.placed = false
		w.pending = nil
	}
	for _, r := range s.rorder {
		r.ackTick.Stop()
		r.ready = nil
		r.wake = kern.Waker{}
	}
	for _, l := range s.lanes {
		l.inflight = 0
		l.waiters = nil
	}
}

// startReports arms the broker's load-report beacon (called by the
// balancer for machines hosting lanes). Report ticks skip while
// crashed and resume after restart, carrying the new incarnation so
// the balancer can detect the reboot and re-teach assignments.
func (s *Service) startReports() {
	if s.stopRep != nil {
		return
	}
	s.stopRep = s.m.Kern.Beacon(reportEvery, s.sendReport)
}

func (s *Service) sendReport() {
	lanes := make([]uint32, 0, len(s.fwdLane))
	for id := range s.fwdLane {
		lanes = append(lanes, id)
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
	lb := make([]laneBytes, 0, len(lanes))
	for _, id := range lanes {
		lb = append(lb, laneBytes{lane: id, bytes: s.fwdLane[id]})
	}
	vs := make([]uint64, 0, len(s.fwdVChan))
	for v := range s.fwdVChan {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	vb := make([]vchanBytes, 0, len(vs))
	for _, v := range vs {
		vb = append(vb, vchanBytes{v: v, bytes: s.fwdVChan[v]})
	}
	s.fwdLane = make(map[uint32]int64)
	s.fwdVChan = make(map[uint64]int64)
	s.f.SendAsyncCtx(0, s.fab.bal.ep, "vchan.ctrl", CtrlBytes,
		&ctrlMsg{kind: ctrlReport, from: s.f.Endpoint(),
			inc: s.m.Kern.Incarnation(), laneBytes: lb, vBytes: vb}, nil)
}
