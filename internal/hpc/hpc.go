// Package hpc models the HPC interconnect: self-routing twelve-port
// star clusters joined per a topo.Topology, with flow control done
// entirely in hardware.
//
// The modeled guarantees are exactly the ones the paper claims (§2):
//
//   - Messages are limited to a hardware maximum (1060 bytes).
//   - Every link refuses to accept a message until it has room to
//     buffer the entire message, so the interconnect never drops data.
//   - A fair scheduling mechanism (FIFO arbitration per link) ensures
//     every sender is eventually serviced.
//   - A sending processor whose output section is full receives an
//     interrupt when room becomes available.
//
// Transmission is store-and-forward with a one-message buffer at the
// downstream end of every link, which is how the original hardware's
// "room for an entire message" rule behaves.
package hpc

import (
	"fmt"
	"sort"
	"sync"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/trace"
)

// Message is a hardware message in flight. Payload is opaque to the
// interconnect; Size drives all timing.
type Message struct {
	Src, Dst topo.EndpointID
	Size     int
	Payload  any
	Tag      string // optional label for tracing and debugging
	// Trace is the causal trace ID threading this message's journey
	// through the event tracer. Zero (tracing off, or an untraced
	// send) means the fabric assigns one itself when tracing is on.
	Trace uint64
	// Inc is the sender machine's incarnation (boot count) at send
	// time, stamped by the netif. A receiver that has fenced the
	// sender at a higher floor refuses the frame — the structural
	// defense against zombie survivors of a healed partition.
	Inc uint32

	// pooled marks a shell born from the interconnect's message arena
	// (AllocMessage); FreeMessage ignores caller-constructed Messages.
	pooled bool
}

// AllocMessage takes a Message shell from the interconnect's arena.
// The caller fills the fields; whoever consumes the message hands the
// shell back with FreeMessage once nothing can touch it again.
func (ic *Interconnect) AllocMessage() *Message {
	m := ic.msgPool.Get().(*Message)
	m.pooled = true
	return m
}

// FreeMessage returns an arena-born shell for reuse and zeroes it; a
// Message built by hand is ignored, so consumers can call this on
// every delivery without tracking provenance. Callers must ensure no
// reference survives — in particular, a receiver may only free
// synchronously from its deliver callback when the sender attached no
// onDelivered (arena messages come from netif, which never reads the
// message there).
func (ic *Interconnect) FreeMessage(m *Message) {
	if m == nil || !m.pooled {
		return
	}
	*m = Message{}
	ic.msgPool.Put(m)
}

// Delivery hands an arrived message to an endpoint. The endpoint owns
// the input section while it drains the message and must call Release
// exactly once to free it; until then the interconnect cannot deliver
// the next message to this endpoint.
type Delivery struct {
	Msg     *Message
	release func()
}

// Release frees the endpoint's input section. Calling it more than
// once is a no-op.
func (d *Delivery) Release() {
	if d.release != nil {
		d.release()
		d.release = nil
	}
}

// DeliverFunc is an endpoint's input interrupt handler.
type DeliverFunc func(d *Delivery)

// Stats aggregates interconnect activity.
type Stats struct {
	MessagesDelivered int
	BytesDelivered    int64
	MessagesSent      int
	MulticastsSent    int
	// Reroutes counts transfers that were re-pathed around a failed
	// cube link after they had already been committed to a route.
	Reroutes int
	// HandoffsOut/HandoffsIn count transfers that crossed a shard
	// boundary over a cube link (see shard.go); zero when unsharded.
	HandoffsOut int
	HandoffsIn  int
}

// Interconnect simulates one HPC fabric.
type Interconnect struct {
	k     *sim.Kernel
	costs *m68k.Costs
	topo  *topo.Topology

	outSec  []*buffer // per-endpoint output section
	inSec   []*buffer // per-endpoint input section
	upLink  []*link   // endpoint -> cluster
	dnLink  []*link   // cluster -> endpoint
	cubeLnk map[[2]topo.ClusterID]*link

	deliver []DeliverFunc
	onRoom  [][]func() // room-available interrupt handlers per endpoint

	// outWait[e] is the park reason of a sender blocked on endpoint e's
	// full output section, built on first use (see outputWaitReason).
	outWait []string

	// downCubes counts directed cube links currently marked down. When
	// it is zero every route uses the canonical dimension-order rule,
	// so an idle fault engine leaves behaviour bit-identical.
	downCubes int

	// cubePaths caches the canonical cube-link sequence per cluster
	// pair. Dimension-order routes are topology-static, so entries
	// never invalidate; the cache is bypassed whenever downCubes != 0.
	cubePaths map[[2]topo.ClusterID][]*link

	// tPool and msgPool recycle transfer and Message shells so the
	// steady-state send path allocates nothing. Shells are reset on
	// recycle; a transfer's completion and release thunks are bound
	// once, at first construction, and survive reuse.
	tPool   sync.Pool
	msgPool sync.Pool

	// Sharded execution (see shard.go): this fabric's shard index, the
	// cluster→shard map, and the peer fabrics, all nil/zero when the
	// simulation is unsharded.
	shardSelf int
	shardOf   []int
	peers     []*Interconnect

	stats  Stats
	tracer *trace.Tracer
}

// SetTracer installs the unified event tracer. Fabric events land
// under the "fabric" process, one lane per directed link, so a message
// can be followed hop-by-hop; per-link wait-queue depth is exported as
// a gauge and backpressure stalls as a counter.
func (ic *Interconnect) SetTracer(t *trace.Tracer) { ic.tracer = t }

// Tracer returns the interconnect's tracer (possibly nil).
func (ic *Interconnect) Tracer() *trace.Tracer { return ic.tracer }

// msgDetail renders the constant facts of a message for event details.
func msgDetail(m *Message) string {
	if m.Tag != "" {
		return fmt.Sprintf("%s %dB %d->%d", m.Tag, m.Size, m.Src, m.Dst)
	}
	return fmt.Sprintf("%dB %d->%d", m.Size, m.Src, m.Dst)
}

// New builds an interconnect over the given topology.
func New(k *sim.Kernel, costs *m68k.Costs, t *topo.Topology) *Interconnect {
	n := t.Endpoints()
	ic := &Interconnect{
		k:       k,
		costs:   costs,
		topo:    t,
		outSec:  make([]*buffer, n),
		inSec:   make([]*buffer, n),
		upLink:  make([]*link, n),
		dnLink:  make([]*link, n),
		cubeLnk: make(map[[2]topo.ClusterID]*link),
		deliver: make([]DeliverFunc, n),
		onRoom:  make([][]func(), n),
	}
	ic.cubePaths = make(map[[2]topo.ClusterID][]*link)
	ic.tPool.New = func() any { return newBoundTransfer(ic) }
	ic.msgPool.New = func() any { return &Message{} }
	for e := 0; e < n; e++ {
		ic.outSec[e] = &buffer{name: fmt.Sprintf("out%d", e), outEP: int32(e + 1)}
		ic.inSec[e] = &buffer{name: fmt.Sprintf("in%d", e)}
		ic.upLink[e] = &link{ic: ic, name: fmt.Sprintf("up%d", e), into: &buffer{name: fmt.Sprintf("clbuf-up%d", e)}}
		ic.dnLink[e] = &link{ic: ic, name: fmt.Sprintf("dn%d", e), into: ic.inSec[e]}
	}
	for c := 0; c < t.Clusters(); c++ {
		for _, nb := range t.Neighbors(topo.ClusterID(c)) {
			key := [2]topo.ClusterID{topo.ClusterID(c), nb}
			ic.cubeLnk[key] = &link{
				ic:     ic,
				name:   fmt.Sprintf("cube%d-%d", c, nb),
				into:   &buffer{name: fmt.Sprintf("clbuf%d-%d", c, nb)},
				isCube: true,
				from:   topo.ClusterID(c),
				to:     nb,
			}
		}
	}
	return ic
}

// Topology returns the interconnect's topology.
func (ic *Interconnect) Topology() *topo.Topology { return ic.topo }

// Costs returns the cost model in use.
func (ic *Interconnect) Costs() *m68k.Costs { return ic.costs }

// Stats returns a snapshot of interconnect counters.
func (ic *Interconnect) Stats() Stats { return ic.stats }

// LinkStat reports one directed link's activity.
type LinkStat struct {
	Name     string
	Busy     sim.Duration
	Messages int
}

// LinkStats returns activity for every directed link, sorted by name —
// the hot-link diagnostic view for tuning application placement.
func (ic *Interconnect) LinkStats() []LinkStat {
	var links []*link
	for e := range ic.upLink {
		links = append(links, ic.upLink[e], ic.dnLink[e])
	}
	for _, l := range ic.cubeLnk {
		links = append(links, l)
	}
	out := make([]LinkStat, 0, len(links))
	for _, l := range links {
		out = append(out, LinkStat{Name: l.name, Busy: l.busyTime, Messages: l.count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetEndpointCable sets the fiber length, in kilometers, of endpoint
// e's connection to its cluster (both directions). Workstations "may
// be geographically distributed within the area of a large building"
// — over a kilometer of fiber adds light-propagation delay to every
// message.
func (ic *Interconnect) SetEndpointCable(e topo.EndpointID, km float64) {
	d := sim.Duration(km * float64(ic.costs.FiberPerKm))
	ic.upLink[e].propagation = d
	ic.dnLink[e].propagation = d
}

// HottestLink returns the link with the most busy time.
func (ic *Interconnect) HottestLink() LinkStat {
	var best LinkStat
	for _, ls := range ic.LinkStats() {
		if ls.Busy > best.Busy {
			best = ls
		}
	}
	return best
}

// SetDeliver installs the input interrupt handler for endpoint e.
func (ic *Interconnect) SetDeliver(e topo.EndpointID, fn DeliverFunc) {
	ic.deliver[e] = fn
}

// SetCubeLinkDown fails or repairs the bidirectional cube link between
// clusters a and b. Failing a link reroutes every transfer queued at
// it around the failure; a transfer for which no surviving path exists
// stays parked at the link until repair (the fabric still never loses
// a message — store-and-forward buffers hold it). A transmission
// already on the wire completes normally. Repairing a link restarts
// its queue. Unknown links are ignored.
func (ic *Interconnect) SetCubeLinkDown(a, b topo.ClusterID, down bool) {
	if ic.sharded() {
		// Rerouting around a failed link is a zero-lookahead operation
		// (the detour decision must take effect at the failing instant on
		// every shard), which the conservative protocol cannot fund.
		panic("hpc: cube link faults are not supported in sharded mode")
	}
	ic.setDirDown(a, b, down)
	ic.setDirDown(b, a, down)
}

func (ic *Interconnect) setDirDown(from, to topo.ClusterID, down bool) {
	l := ic.cubeLnk[[2]topo.ClusterID{from, to}]
	if l == nil || l.down == down {
		return
	}
	l.down = down
	if down {
		ic.downCubes++
		q := l.waitQ
		l.waitQ = nil
		for _, t := range q {
			if !ic.rerouteFrom(t, from) {
				l.waitQ = append(l.waitQ, t) // partitioned: await repair
			}
		}
	} else {
		ic.downCubes--
		l.tryStart()
	}
}

// CubeLinkDown reports whether the directed cube link from a to b is
// currently failed.
func (ic *Interconnect) CubeLinkDown(a, b topo.ClusterID) bool {
	l := ic.cubeLnk[[2]topo.ClusterID{a, b}]
	return l != nil && l.down
}

// DownCubeLinks returns the number of directed cube links currently
// failed (a bidirectional failure counts twice).
func (ic *Interconnect) DownCubeLinks() int { return ic.downCubes }

// SetCubeLinkSlowdown degrades (factor > 1) or restores (factor <= 1)
// the bandwidth of the cube link between a and b in both directions:
// wire time is multiplied by factor, modeling a link renegotiated to a
// lower rate. Unknown links are ignored.
func (ic *Interconnect) SetCubeLinkSlowdown(a, b topo.ClusterID, factor float64) {
	for _, key := range [][2]topo.ClusterID{{a, b}, {b, a}} {
		if l := ic.cubeLnk[key]; l != nil {
			l.slowdown = factor
		}
	}
}

// cubeDown is the down-link predicate fed to topo.RouteAvoiding.
func (ic *Interconnect) cubeDown(from, to topo.ClusterID) bool {
	return ic.CubeLinkDown(from, to)
}

// clusterPath returns the cluster route from a to b. With no failed
// links it is the canonical dimension-order route; with failures it is
// a deterministic shortest path over the surviving links, or an error
// when the failures partition a from b.
func (ic *Interconnect) clusterPath(a, b topo.ClusterID) ([]topo.ClusterID, error) {
	if ic.downCubes == 0 {
		return ic.topo.ClusterRoute(a, b), nil
	}
	if r := ic.topo.RouteAvoiding(a, b, ic.cubeDown); r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("hpc: cluster %d unreachable from cluster %d (links down)", b, a)
}

// rerouteFrom re-paths a transfer currently held at cluster `at`
// around the failed links, reporting whether a surviving path exists.
func (ic *Interconnect) rerouteFrom(t *transfer, at topo.ClusterID) bool {
	dstCluster := ic.topo.AttachmentOf(t.msg.Dst).Cluster
	route := ic.topo.RouteAvoiding(at, dstCluster, ic.cubeDown)
	if route == nil {
		return false
	}
	newLinks := make([]*link, 0, len(route))
	for i := 1; i < len(route); i++ {
		newLinks = append(newLinks, ic.cubeLnk[[2]topo.ClusterID{route[i-1], route[i]}])
	}
	newLinks = append(newLinks, ic.dnLink[t.msg.Dst])
	t.links = append(t.links[:t.pos:t.pos], newLinks...)
	ic.stats.Reroutes++
	t.links[t.pos].request(t)
	return true
}

// OutputFree reports whether endpoint e's output section has room.
func (ic *Interconnect) OutputFree(e topo.EndpointID) bool {
	return !ic.outSec[e].full()
}

// SetOutputDepth deepens every endpoint's output section to k message
// slots (the pipelined profile's multi-slot port). k <= 1 restores the
// classic single-slot behaviour. Backpressure is unchanged in kind:
// TrySend still refuses when the section is full, and room-available
// interrupts still fire only when a slot frees. Only output sections
// are deepened; the fabric's cluster buffers and input sections keep
// their single slot, so link arbitration and deadlock-freedom are
// exactly the classic argument.
func (ic *Interconnect) SetOutputDepth(k int) {
	if k < 1 {
		k = 1
	}
	for _, b := range ic.outSec {
		b.depth = int32(k)
	}
}

// NotifyRoom registers a one-shot callback invoked when endpoint e's
// output section next becomes free (the "room available" interrupt).
// If it is already free the callback fires at the current instant.
func (ic *Interconnect) NotifyRoom(e topo.EndpointID, fn func()) {
	if ic.OutputFree(e) {
		ic.k.After(0, fn)
		return
	}
	ic.onRoom[e] = append(ic.onRoom[e], fn)
}

// TrySend starts transmission of msg if the sender's output section is
// free, reporting whether the message was accepted. onDelivered (may
// be nil) fires when the message lands in the destination's input
// section. A message over the hardware limit is rejected with an
// error regardless of room.
func (ic *Interconnect) TrySend(msg *Message, onDelivered func(*Message)) (bool, error) {
	if msg.Size > ic.costs.MaxMessage {
		return false, fmt.Errorf("hpc: message of %d bytes exceeds hardware limit %d", msg.Size, ic.costs.MaxMessage)
	}
	if msg.Size < 0 {
		return false, fmt.Errorf("hpc: negative message size")
	}
	out := ic.outSec[msg.Src]
	if out.full() {
		return false, nil
	}
	t := ic.newTransfer()
	if err := ic.routeLinksInto(t, msg.Src, msg.Dst); err != nil {
		t.links = t.links[:0]
		ic.tPool.Put(t)
		return false, err
	}
	if ic.tracer.Enabled() && msg.Trace == 0 {
		msg.Trace = ic.tracer.NewTraceID()
	}
	t.msg = msg
	t.onDelivered = onDelivered
	out.occ++
	t.holder = out
	ic.stats.MessagesSent++
	if ic.tracer.Enabled() {
		ic.tracer.Emit(trace.KEnqueue, msg.Trace, "fabric", out.name, msgDetail(msg))
	}
	t.links[0].request(t)
	return true, nil
}

// Send blocks proc p until the output section accepts msg (the room-
// available interrupt), then queues it. onDelivered may be nil.
func (ic *Interconnect) Send(p *sim.Proc, msg *Message, onDelivered func(*Message)) error {
	for {
		ok, err := ic.TrySend(msg, onDelivered)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		wake := p.Park(ic.outputWaitReason(msg.Src))
		ic.NotifyRoom(msg.Src, wake)
		p.Block()
	}
}

// outputWaitReason is the park reason of a sender waiting for room in
// endpoint e's output section, built once per endpoint.
func (ic *Interconnect) outputWaitReason(e topo.EndpointID) string {
	if ic.outWait == nil {
		ic.outWait = make([]string, len(ic.outSec))
	}
	if ic.outWait[e] == "" {
		ic.outWait[e] = "hpc-output " + fmt.Sprint(e)
	}
	return ic.outWait[e]
}

// SendMulticast transmits one message to several destinations. The
// hardware replicates the message at the source cluster: the sender's
// output section and up-link are charged once, and a separate
// flow-controlled transfer then carries a copy to each destination.
// onDelivered (may be nil) fires once per destination.
func (ic *Interconnect) SendMulticast(p *sim.Proc, src topo.EndpointID, dsts []topo.EndpointID, size int, payload any, tag string, onDelivered func(dst topo.EndpointID, m *Message)) error {
	if size > ic.costs.MaxMessage {
		return fmt.Errorf("hpc: multicast of %d bytes exceeds hardware limit %d", size, ic.costs.MaxMessage)
	}
	if len(dsts) == 0 {
		return fmt.Errorf("hpc: multicast with no destinations")
	}
	out := ic.outSec[src]
	for out.full() {
		wake := p.Park("hpc-output-mc")
		ic.NotifyRoom(src, wake)
		p.Block()
	}
	ic.stats.MulticastsSent++
	// Phase 1: one trip up to the source cluster's replication buffer.
	up := ic.upLink[src]
	mt := &mcastRoot{ic: ic, src: src, size: size, payload: payload, tag: tag, dsts: dsts, onDelivered: onDelivered}
	t := &transfer{
		msg:   &Message{Src: src, Dst: src, Size: size, Payload: payload, Tag: tag + "/mc-up"},
		links: []*link{up},
		onArrivedAtBuffer: func(tr *transfer) {
			// Message is in the cluster replication buffer; fan out.
			mt.fanOut(tr)
		},
	}
	out.occ++
	t.holder = out
	up.request(t)
	return nil
}

// mcastRoot tracks a multicast's replication state.
type mcastRoot struct {
	ic          *Interconnect
	src         topo.EndpointID
	size        int
	payload     any
	tag         string
	dsts        []topo.EndpointID
	onDelivered func(topo.EndpointID, *Message)
	pending     int
	rootBuf     *buffer
	rootLink    *link
}

// fanOut launches one transfer per destination from the replication
// buffer. The buffer frees when every branch has left it.
func (m *mcastRoot) fanOut(root *transfer) {
	m.rootBuf = root.holder
	m.rootLink = root.links[len(root.links)-1]
	m.pending = len(m.dsts)
	srcCluster := m.ic.topo.AttachmentOf(m.src).Cluster
	for _, d := range m.dsts {
		d := d
		msg := &Message{Src: m.src, Dst: d, Size: m.size, Payload: m.payload, Tag: m.tag}
		links := ic_linksFromCluster(m.ic, srcCluster, d)
		bt := &transfer{msg: msg, onDelivered: func(mm *Message) {
			if m.onDelivered != nil {
				m.onDelivered(d, mm)
			}
		}}
		bt.notifySh = int32(m.ic.shardSelf)
		bt.links = links
		bt.holder = nil // replication buffer ownership handled by root
		bt.onLeftFirstBuffer = func() {
			m.pending--
			if m.pending == 0 {
				m.rootBuf.occ--
				m.rootLink.tryStart()
			}
		}
		links[0].request(bt)
	}
}

// ic_linksFromCluster returns the link path from cluster c to endpoint
// dst (inter-cluster hops plus the final down-link). With failed links
// it routes around them; when dst is unreachable it falls back to the
// canonical route, so the transfer parks at the failed link until
// repair — used by multicast, which has no per-branch error path.
func ic_linksFromCluster(ic *Interconnect, c topo.ClusterID, dst topo.EndpointID) []*link {
	links, err := ic.linksFromCluster(c, dst)
	if err == nil {
		return links
	}
	route := ic.topo.ClusterRoute(c, ic.topo.AttachmentOf(dst).Cluster)
	links = nil
	for i := 1; i < len(route); i++ {
		links = append(links, ic.cubeLnk[[2]topo.ClusterID{route[i-1], route[i]}])
	}
	return append(links, ic.dnLink[dst])
}

// linksFromCluster returns the link path from cluster c to endpoint
// dst over surviving links, or an error when dst is unreachable.
func (ic *Interconnect) linksFromCluster(c topo.ClusterID, dst topo.EndpointID) ([]*link, error) {
	route, err := ic.clusterPath(c, ic.topo.AttachmentOf(dst).Cluster)
	if err != nil {
		return nil, err
	}
	var links []*link
	for i := 1; i < len(route); i++ {
		links = append(links, ic.cubeLnk[[2]topo.ClusterID{route[i-1], route[i]}])
	}
	return append(links, ic.dnLink[dst]), nil
}

// cubePath returns the canonical cube-link sequence from cluster a to
// cluster b, memoized. Valid only while no cube links are down.
func (ic *Interconnect) cubePath(a, b topo.ClusterID) []*link {
	key := [2]topo.ClusterID{a, b}
	if p, ok := ic.cubePaths[key]; ok {
		return p
	}
	route := ic.topo.ClusterRoute(a, b)
	p := make([]*link, 0, len(route))
	for i := 1; i < len(route); i++ {
		p = append(p, ic.cubeLnk[[2]topo.ClusterID{route[i-1], route[i]}])
	}
	ic.cubePaths[key] = p
	return p
}

// routeLinksInto fills t.links with the full link path from src's
// output section to dst's input section, reusing the slice's capacity.
// With a healthy fabric the inter-cluster hops come from the memoized
// canonical path; with failures it falls back to the allocating
// avoidance router. Errors only when failures have left dst
// unreachable.
func (ic *Interconnect) routeLinksInto(t *transfer, src, dst topo.EndpointID) error {
	t.links = append(t.links[:0], ic.upLink[src])
	if ic.downCubes == 0 {
		a := ic.topo.AttachmentOf(src).Cluster
		b := ic.topo.AttachmentOf(dst).Cluster
		t.links = append(t.links, ic.cubePath(a, b)...)
		t.links = append(t.links, ic.dnLink[dst])
		return nil
	}
	rest, err := ic.linksFromCluster(ic.topo.AttachmentOf(src).Cluster, dst)
	if err != nil {
		return err
	}
	t.links = append(t.links, rest...)
	return nil
}

// buffer is a hardware buffer holding whole messages. Historically
// every buffer held exactly one message; output sections may be
// deepened to K slots (SetOutputDepth) so a port can accept a fragment
// train while the previous fragment drains. occ counts resident or
// reserved messages; depth 0 means the classic single slot.
type buffer struct {
	name  string
	occ   int32
	depth int32
	// outEP is endpoint+1 when this buffer is an endpoint's output
	// section (so freed() finds the room-interrupt list in O(1)), else 0.
	outEP int32
}

func (b *buffer) cap() int32 {
	if b.depth > 0 {
		return b.depth
	}
	return 1
}

func (b *buffer) full() bool { return b.occ >= b.cap() }

// transfer is one message making its way along a link path.
//
// Transfer shells are pooled: newTransfer draws one from the
// interconnect's pool and maybeRecycle returns it once the message has
// both finished its hops (onDelivered ran) and had its input section
// released by the endpoint — whichever happens last. The completion
// and release thunks are bound once per shell, so a steady-state send
// schedules and delivers without allocating.
type transfer struct {
	ic     *Interconnect
	msg    *Message
	links  []*link
	pos    int     // next link index to traverse
	holder *buffer // buffer currently holding the message (nil for multicast branches still in the shared buffer)

	onDelivered       func(*Message)
	onArrivedAtBuffer func(*transfer) // fires instead of delivery (multicast root)
	onLeftFirstBuffer func()          // multicast branch bookkeeping

	curLink    *link  // link currently transmitting (read by completeFn)
	lastLink   *link  // final link, whose buffer releaseFn frees
	completeFn func() // bound once: curLink.complete(this)
	releaseFn  func() // bound once: free input section, recycle
	dlv        Delivery

	// Sharded execution (see shard.go). onFirstHopStart fires once, at
	// the start of this transfer's first transmission, with the hop's
	// completion time — the pre-announcement hook that funds cross-shard
	// signals with a full hop of lookahead. notifySh is the shard whose
	// state the onDelivered callback closes over; when it is not the
	// delivering shard, the completion notice is posted back instead of
	// called.
	onFirstHopStart func(doneAt sim.Time)
	notifySh        int32

	doneHops bool // delivery (or terminal callback) has finished
	released bool // the endpoint freed the input section
	recycled bool
}

// newBoundTransfer mints a shell with its thunks pre-bound.
func newBoundTransfer(ic *Interconnect) *transfer {
	t := &transfer{ic: ic}
	t.completeFn = func() { t.curLink.complete(t) }
	t.releaseFn = func() {
		l := t.lastLink
		l.into.occ--
		t.released = true
		t.maybeRecycle()
		l.tryStart()
	}
	return t
}

// newTransfer draws a reset shell from the pool.
func (ic *Interconnect) newTransfer() *transfer {
	t := ic.tPool.Get().(*transfer)
	t.doneHops = false
	t.released = false
	t.recycled = false
	t.notifySh = int32(ic.shardSelf)
	return t
}

// maybeRecycle returns the shell to the pool once the last of the two
// lifetime ends (hop completion, input-section release) has passed.
// Both orders occur: a handler may Release inside its deliver callback
// (before onDelivered runs) or hold the Delivery long after.
func (t *transfer) maybeRecycle() {
	if !t.doneHops || !t.released || t.recycled {
		return
	}
	t.recycled = true
	t.msg = nil
	t.links = t.links[:0]
	t.pos = 0
	t.holder = nil
	t.onDelivered = nil
	t.onArrivedAtBuffer = nil
	t.onLeftFirstBuffer = nil
	t.curLink = nil
	t.lastLink = nil
	t.dlv = Delivery{}
	t.onFirstHopStart = nil
	t.notifySh = int32(t.ic.shardSelf)
	t.ic.tPool.Put(t)
}

// link is a directed link with FIFO (fair) arbitration into a
// one-message downstream buffer.
type link struct {
	ic          *Interconnect
	name        string
	into        *buffer
	busy        bool
	waitQ       []*transfer
	propagation sim.Duration // fiber length delay

	// Fault state (cube links only). down refuses new transmissions;
	// slowdown > 1 multiplies wire time (degraded bandwidth).
	isCube   bool
	from, to topo.ClusterID
	down     bool
	slowdown float64

	busyTime  sim.Duration
	lastStart sim.Time
	count     int
}

// request queues t for transmission over l. A request arriving at a
// failed cube link is rerouted around the failure when a surviving
// path exists; otherwise it parks here until repair.
func (l *link) request(t *transfer) {
	if l.down && l.isCube && l.ic.rerouteFrom(t, l.from) {
		return
	}
	l.waitQ = append(l.waitQ, t)
	l.tryStart()
	if tr := l.ic.tracer; tr.Enabled() {
		// Still queued after tryStart ⇒ the transfer is stalled here.
		for _, q := range l.waitQ {
			if q == t {
				tr.Emit(trace.KBlocked, t.msg.Trace, "fabric", l.name, l.stallReason())
				tr.Count("hpc.blocked", 1)
				tr.GaugeSet("hpc.q."+l.name, float64(len(l.waitQ)))
				break
			}
		}
	}
}

// stallReason explains why the link cannot transmit right now.
func (l *link) stallReason() string {
	switch {
	case l.down:
		return "link-down"
	case l.busy:
		return "link-busy"
	case l.into.full():
		return "buffer-full"
	default:
		return "queued"
	}
}

// tryStart begins the next queued transmission if the link is up and
// idle and the downstream buffer is free.
func (l *link) tryStart() {
	if l.busy || l.down || l.into.full() || len(l.waitQ) == 0 {
		return
	}
	t := l.waitQ[0]
	// Shift rather than re-slice so the queue keeps its capacity: a
	// [1:] pop erodes cap and forces a fresh array on every push.
	copy(l.waitQ, l.waitQ[1:])
	l.waitQ[len(l.waitQ)-1] = nil
	l.waitQ = l.waitQ[:len(l.waitQ)-1]
	l.busy = true
	l.into.occ++ // reserve: "room for an entire message"
	l.lastStart = l.ic.k.Now()
	if tr := l.ic.tracer; tr.Enabled() {
		tr.Emit(trace.KAcquire, t.msg.Trace, "fabric", l.name, msgDetail(t.msg))
		tr.GaugeSet("hpc.q."+l.name, float64(len(l.waitQ)))
	}
	wire := l.ic.costs.WireTime(t.msg.Size)
	if l.slowdown > 1 {
		wire = sim.Duration(float64(wire) * l.slowdown)
	}
	dur := l.ic.costs.HopFixed + wire + l.propagation
	t.ic = l.ic
	// Sharded execution: the hop's completion time is known now, a full
	// HopFixed (= the group lookahead) ahead, so every cross-shard
	// consequence of this transmission is announced at its start.
	if t.onFirstHopStart != nil {
		t.onFirstHopStart(l.ic.k.Now().Add(dur))
		t.onFirstHopStart = nil
	}
	if l.isCube && l.ic.shardOf != nil && l.ic.shardOf[l.to] != l.ic.shardSelf {
		l.ic.handoff(l, t, dur)
		return
	}
	if t.onDelivered != nil && int(t.notifySh) != l.ic.shardSelf && t.pos == len(t.links)-1 {
		l.ic.carryBack(t, l.ic.k.Now().Add(dur))
	}
	// Hand-built transfers (multicast) bind their thunk on first use;
	// pooled shells carry one from birth.
	if t.completeFn == nil {
		tt := t
		t.completeFn = func() { tt.curLink.complete(tt) }
	}
	t.curLink = l
	l.ic.k.After(dur, t.completeFn)
}

// complete finishes a transmission: the message now sits in l's
// downstream buffer and has fully left its previous buffer.
func (l *link) complete(t *transfer) {
	l.busy = false
	l.busyTime += l.ic.k.Now().Sub(l.lastStart)
	l.count++
	if tr := l.ic.tracer; tr.Enabled() {
		tr.EmitSpan(trace.KHop, t.msg.Trace, "fabric", l.name, l.lastStart, msgDetail(t.msg))
		// Cumulative utilization: busy virtual time over elapsed
		// virtual time, sampled at each hop completion so the series
		// sampler can plot per-link load without touching sim state.
		if now := l.ic.k.Now(); now > 0 {
			tr.GaugeSet("hpc.util."+l.name, float64(l.busyTime)/float64(now))
		}
	}

	// Free the upstream buffer the message just vacated.
	if t.holder != nil {
		prev := t.holder
		prev.occ--
		l.ic.freed(prev, t.pos, t)
	} else if t.onLeftFirstBuffer != nil {
		t.onLeftFirstBuffer()
		t.onLeftFirstBuffer = nil
	}
	t.holder = l.into
	t.pos++

	if t.onArrivedAtBuffer != nil && t.pos == len(t.links) {
		t.onArrivedAtBuffer(t)
		return
	}
	if t.pos < len(t.links) {
		t.links[t.pos].request(t)
		return
	}
	// Arrived in the destination input section.
	l.ic.stats.MessagesDelivered++
	l.ic.stats.BytesDelivered += int64(t.msg.Size)
	if tr := l.ic.tracer; tr.Enabled() {
		tr.Emit(trace.KDeliver, t.msg.Trace, "fabric", l.into.name, msgDetail(t.msg))
		tr.Count("hpc.delivered", 1)
		tr.Count("hpc.bytes", float64(t.msg.Size))
	}
	t.lastLink = l
	if t.releaseFn == nil {
		tt := t
		t.releaseFn = func() {
			ll := tt.lastLink
			ll.into.occ--
			tt.released = true
			tt.maybeRecycle()
			ll.tryStart()
		}
	}
	t.dlv = Delivery{Msg: t.msg, release: t.releaseFn}
	d := &t.dlv
	if fn := l.ic.deliver[t.msg.Dst]; fn != nil {
		fn(d)
	} else {
		// No handler installed: drain immediately so the fabric
		// cannot wedge (the VORX kernel reads messages immediately).
		d.Release()
	}
	if t.onDelivered != nil {
		t.onDelivered(t.msg)
	}
	t.doneHops = true
	t.maybeRecycle()
}

// freed handles the bookkeeping after a buffer is vacated: restart the
// link feeding it, or fire the sender's room-available interrupt when
// the freed buffer was an output section.
func (ic *Interconnect) freed(b *buffer, posOfVacatingLink int, t *transfer) {
	// Output section freed: room-available interrupt.
	if b.outEP != 0 {
		e := int(b.outEP - 1)
		handlers := ic.onRoom[e]
		ic.onRoom[e] = nil
		for _, fn := range handlers {
			fn()
		}
		return
	}
	// Cluster buffer freed: the link feeding it may proceed.
	if posOfVacatingLink >= 1 {
		t.links[posOfVacatingLink-1].tryStart()
	}
}
