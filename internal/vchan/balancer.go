package vchan

import (
	"fmt"
	"io"
	"sort"

	"hpcvorx/internal/core"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/trace"
)

// Balancer is the deterministic placement authority: it mints terms,
// drives the seal → drain → revoke/assign → expect → place migration
// protocol, watches broker load reports (per-lane byte counters and
// report silence), and — in auto mode — rebalances the hottest lane.
// It runs entirely on one simulated machine: every decision is a
// kernel timer or a fabric message, so checked runs are
// bit-reproducible.
type Balancer struct {
	fab     *Fabric
	m       *core.Machine
	ep      topo.EndpointID
	started bool

	brokers []*brokerInfo
	lanes   []*laneInfo
	places  map[uint64]*placement
	migs    map[uint64]*migration

	outstanding map[uint64]*ctrlOut
	nextCtrl    uint64

	recs []Record

	// Stats.
	Migrations  int // placements moved (incl. initial placement = 0)
	CtrlRetries int // control messages retransmitted
}

type brokerInfo struct {
	node    int
	m       *core.Machine
	lanes   []*laneInfo
	lastRep sim.Time
	lastInc uint32
	heard   bool // at least one report received
	down    bool // silence-declared dead
}

type laneInfo struct {
	id       uint32
	broker   *brokerInfo
	bytes    int64 // forwarded bytes, cumulative from reports
	recent   int64 // forwarded bytes since the last auto sweep
	assigned int
}

type placement struct {
	v    uint64
	name string
	term uint32
	lane *laneInfo
	prod topo.EndpointID
	cons topo.EndpointID
	// vbytes accumulates this vchannel's forwarded bytes (for the
	// heaviest-tenant pick).
	vbytes int64
}

const (
	phaseSealing = iota + 1
	phaseMoving  // revoke sent (non-blocking), assign/expect/place chain running
)

type migration struct {
	p       *placement
	to      *laneInfo
	newTerm uint32
	reason  string
	phase   int
	start   sim.Time
	drainT  sim.Timer
}

// ctrlOut is one in-flight control message, retransmitted until its
// ack returns.
type ctrlOut struct {
	id    uint64
	dst   topo.EndpointID
	msg   *ctrlMsg
	timer sim.Timer
	onAck func()
}

// Record is one balancer decision, for reports and tests.
type Record struct {
	At   sim.Time
	What string
}

func (r Record) String() string {
	return fmt.Sprintf("%8.1fµs  %s", r.At.Microseconds(), r.What)
}

func newBalancer(f *Fabric, m *core.Machine) *Balancer {
	return &Balancer{
		fab:         f,
		m:           m,
		ep:          m.EP,
		places:      make(map[uint64]*placement),
		migs:        make(map[uint64]*migration),
		outstanding: make(map[uint64]*ctrlOut),
	}
}

func (b *Balancer) tracer() *trace.Tracer { return b.m.Kern.Tracer() }

func (b *Balancer) record(format string, args ...any) {
	b.recs = append(b.recs, Record{At: b.m.Kern.Kernel().Now(), What: fmt.Sprintf(format, args...)})
}

// Report writes the decision log.
func (b *Balancer) Report(w io.Writer) {
	for _, r := range b.recs {
		fmt.Fprintln(w, r)
	}
}

// Endpoint returns the balancer's machine endpoint.
func (b *Balancer) Endpoint() topo.EndpointID { return b.ep }

// HasVChan reports whether a vchannel name is declared (fault DSL
// validation).
func (b *Balancer) HasVChan(name string) bool { return b.fab.byName[name] != nil }

// Started reports whether Start has run (lane set resolved).
func (b *Balancer) Started() bool { return b.started }

// IsBroker reports whether node index i hosts lanes (fault DSL
// validation). Only meaningful after Start.
func (b *Balancer) IsBroker(i int) bool {
	for _, bi := range b.brokers {
		if bi.node == i {
			return true
		}
	}
	return false
}

// BrokerNodes returns the lane-hosting node indices, ascending.
func (b *Balancer) BrokerNodes() []int {
	out := make([]int, len(b.brokers))
	for i, bi := range b.brokers {
		out[i] = bi.node
	}
	sort.Ints(out)
	return out
}

// start picks brokers, builds lanes, places every declared vchannel,
// and arms the sweep beacons.
func (b *Balancer) start() {
	if b.started {
		panic("vchan: Start twice")
	}
	b.started = true
	nodes := b.pickBrokers()
	var laneID uint32
	for _, n := range nodes {
		bi := &brokerInfo{node: n, m: b.fab.sys.Node(n)}
		for i := 0; i < b.fab.cfg.LanesPerBroker; i++ {
			laneID++
			li := &laneInfo{id: laneID, broker: bi}
			bi.lanes = append(bi.lanes, li)
			b.lanes = append(b.lanes, li)
		}
		b.brokers = append(b.brokers, bi)
		b.fab.svcs[bi.m.EP].startReports()
	}
	b.record("brokers %v, %d lanes", nodes, len(b.lanes))
	// Initial placement: declaration order onto the least-assigned
	// lane, term 1, via the same assign→expect→place chain a
	// migration uses (minus seal/revoke — there is nothing to drain).
	for _, r := range b.fab.regs {
		lane := b.pickLane(nil)
		p := &placement{v: r.id, name: r.name, term: 1, lane: lane,
			prod: r.prod.EP, cons: r.cons.EP}
		b.places[r.id] = p
		lane.assigned++
		if v := b.fab.vf; v != nil {
			v.VChanTermMint(p.v, p.name, p.term)
		}
		b.tracer().GaugeSet("vchan.term", float64(p.term))
		b.installChain(p, nil)
	}
	b.m.Kern.Beacon(reportEvery, b.sweep)
	if b.fab.cfg.AutoEvery > 0 {
		b.m.Kern.Beacon(b.fab.cfg.AutoEvery, b.autoSweep)
	}
}

// pickBrokers resolves the broker node set: explicit config, resmgr
// allocation, or the highest-numbered nodes hosting no declared
// endpoint.
func (b *Balancer) pickBrokers() []int {
	if len(b.fab.cfg.Brokers) > 0 {
		out := append([]int(nil), b.fab.cfg.Brokers...)
		sort.Ints(out)
		return out
	}
	busy := make(map[int]bool)
	for _, r := range b.fab.regs {
		if !r.prod.Host {
			busy[r.prod.Index] = true
		}
		if !r.cons.Host {
			busy[r.cons.Index] = true
		}
	}
	if b.fab.res != nil {
		ids, err := b.fab.res.AllocateWhere("vchan", b.fab.cfg.BrokerCount,
			func(id resmgr.NodeID) bool { return !busy[int(id)] })
		if err == nil {
			out := make([]int, len(ids))
			for i, id := range ids {
				out[i] = int(id)
			}
			sort.Ints(out)
			return out
		}
		// Fall through: not enough free nodes under the resource
		// manager; take the static pick instead.
	}
	var out []int
	for i := len(b.fab.sys.Nodes()) - 1; i >= 0 && len(out) < b.fab.cfg.BrokerCount; i-- {
		if !busy[i] {
			out = append(out, i)
		}
	}
	if len(out) < b.fab.cfg.BrokerCount {
		panic("vchan: not enough free nodes for brokers")
	}
	sort.Ints(out)
	return out
}

// pickLane chooses the least-loaded live lane (fewest assignments,
// then fewest bytes, then lowest id), excluding lanes on `not`'s
// broker when not is non-nil.
func (b *Balancer) pickLane(not *laneInfo) *laneInfo {
	var best *laneInfo
	for _, l := range b.lanes {
		if l.broker.down {
			continue
		}
		if not != nil && l.broker == not.broker {
			continue
		}
		if best == nil ||
			l.assigned < best.assigned ||
			(l.assigned == best.assigned && l.bytes < best.bytes) ||
			(l.assigned == best.assigned && l.bytes == best.bytes && l.id < best.id) {
			best = l
		}
	}
	if best == nil && not != nil {
		// Every other broker is down: stay put rather than stall.
		return not
	}
	return best
}

// control-plane reliability ------------------------------------------

// sendCtrl transmits a control message and retransmits it every
// ctrlRetry until the machine's ack returns, then runs onAck.
func (b *Balancer) sendCtrl(dst topo.EndpointID, msg *ctrlMsg, onAck func()) {
	b.nextCtrl++
	msg.id = b.nextCtrl
	msg.from = b.ep
	out := &ctrlOut{id: msg.id, dst: dst, msg: msg, onAck: onAck}
	b.outstanding[out.id] = out
	b.xmit(out)
}

func (b *Balancer) xmit(out *ctrlOut) {
	b.fab.svcs[b.ep].f.SendAsyncCtx(0, out.dst, "vchan.ctrl", CtrlBytes, out.msg, nil)
	out.timer = b.m.Kern.Kernel().After(ctrlRetry, func() {
		b.CtrlRetries++
		b.xmit(out)
	})
}

func (b *Balancer) handleCtrlAck(id uint64) {
	out := b.outstanding[id]
	if out == nil {
		return
	}
	out.timer.Stop()
	delete(b.outstanding, id)
	if out.onAck != nil {
		out.onAck()
	}
}

// migration protocol -------------------------------------------------

// MigrateTo moves a vchannel (by name) to a lane on the given node.
// The fault DSL's `rebalance` op lands here. Returns false if the
// vchannel is unknown, the node hosts no lanes, or a migration for it
// is already running.
func (b *Balancer) MigrateTo(name string, node int) bool {
	r := b.fab.byName[name]
	if r == nil {
		b.record("rebalance %s: unknown vchannel", name)
		return false
	}
	var bi *brokerInfo
	for _, cand := range b.brokers {
		if cand.node == node {
			bi = cand
		}
	}
	if bi == nil {
		b.record("rebalance %s: node%d hosts no lanes", name, node)
		return false
	}
	// Least-loaded lane on the requested broker.
	var lane *laneInfo
	for _, l := range bi.lanes {
		if lane == nil || l.assigned < lane.assigned ||
			(l.assigned == lane.assigned && l.bytes < lane.bytes) {
			lane = l
		}
	}
	return b.migrate(r.id, lane, "manual")
}

func (b *Balancer) migrate(v uint64, to *laneInfo, reason string) bool {
	p := b.places[v]
	if p == nil || to == nil {
		return false
	}
	if b.migs[v] != nil {
		b.record("rebalance %s: migration already running", p.name)
		return false
	}
	if to == p.lane {
		b.record("rebalance %s: already on lane%d", p.name, to.id)
		return false
	}
	mg := &migration{p: p, to: to, newTerm: p.term + 1, reason: reason,
		phase: phaseSealing, start: b.m.Kern.Kernel().Now()}
	b.migs[v] = mg
	b.Migrations++
	b.tracer().Count("vchan.migrations", 1)
	if vf := b.fab.vf; vf != nil {
		vf.VChanTermMint(p.v, p.name, mg.newTerm)
	}
	b.tracer().GaugeSet("vchan.term", float64(mg.newTerm))
	b.tracer().Emit(trace.KMigrate, 0, b.m.Name(), "vchan/"+p.name,
		fmt.Sprintf("mint term=%d lane%d→lane%d (%s)", mg.newTerm, p.lane.id, to.id, reason))
	b.record("migrate %s lane%d→lane%d term=%d (%s)", p.name, p.lane.id, to.id, mg.newTerm, reason)
	// Phase 1: seal the producer at the current term and wait for the
	// drain (or its timeout). A dead old broker doesn't block the
	// drain: acks flow consumer→producer directly, so whatever was
	// already forwarded still drains, and the rest replays later.
	b.sendCtrl(p.prod, &ctrlMsg{kind: ctrlSeal, v: p.v, name: p.name, term: p.term},
		func() {
			if cur := b.migs[v]; cur == mg && mg.phase == phaseSealing && !mg.drainT.Pending() {
				mg.drainT = b.m.Kern.Kernel().After(drainTimeout, func() {
					b.drainDone(v, mg, false)
				})
			}
		})
	return true
}

func (b *Balancer) handleDrained(c *ctrlMsg) {
	mg := b.migs[c.v]
	if mg == nil || mg.phase != phaseSealing || c.term != mg.p.term {
		return
	}
	mg.drainT.Stop()
	b.drainDone(c.v, mg, true)
}

// drainDone advances a migration past the drain barrier: revoke the
// old assignment (non-blocking retransmit — the old broker may be
// dead or cut off; the consumer's term fence covers the gap), then
// assign → expect → place, each gated on the previous ack.
func (b *Balancer) drainDone(v uint64, mg *migration, clean bool) {
	if b.migs[v] != mg || mg.phase != phaseSealing {
		return
	}
	mg.phase = phaseMoving
	p := mg.p
	b.record("drain %s term=%d clean=%v", p.name, p.term, clean)
	b.tracer().Emit(trace.KMigrate, 0, b.m.Name(), "vchan/"+p.name,
		fmt.Sprintf("drain term=%d clean=%v", p.term, clean))
	oldBroker := p.lane.broker
	if !oldBroker.down {
		b.sendCtrl(oldBroker.m.EP, &ctrlMsg{kind: ctrlRevoke, v: p.v, name: p.name, term: p.term}, nil)
	}
	b.installChain(p, mg)
}

// installChain runs assign(broker) → expect(consumer) → place
// (producer) for a placement. For a migration mg the chain commits
// the new lane and term; for the initial placement mg is nil and the
// placement's fields are already final.
func (b *Balancer) installChain(p *placement, mg *migration) {
	lane, term := p.lane, p.term
	if mg != nil {
		lane, term = mg.to, mg.newTerm
	}
	b.sendCtrl(lane.broker.m.EP,
		&ctrlMsg{kind: ctrlAssign, v: p.v, name: p.name, term: term, lane: lane.id, consumer: p.cons},
		func() {
			b.sendCtrl(p.cons,
				&ctrlMsg{kind: ctrlExpect, v: p.v, name: p.name, term: term},
				func() {
					b.sendCtrl(p.prod,
						&ctrlMsg{kind: ctrlPlace, v: p.v, name: p.name, term: term,
							lane: lane.id, broker: lane.broker.m.EP},
						func() { b.installed(p, mg) })
				})
		})
}

func (b *Balancer) installed(p *placement, mg *migration) {
	if mg == nil {
		b.record("placed %s lane%d term=%d", p.name, p.lane.id, p.term)
		return
	}
	if b.migs[p.v] != mg {
		return
	}
	p.lane.assigned--
	mg.to.assigned++
	p.lane = mg.to
	p.term = mg.newTerm
	delete(b.migs, p.v)
	took := b.m.Kern.Kernel().Now().Sub(mg.start)
	b.record("moved %s to lane%d term=%d in %.1fµs (%s)",
		p.name, p.lane.id, p.term, took.Microseconds(), mg.reason)
	b.tracer().Emit(trace.KMigrate, 0, b.m.Name(), "vchan/"+p.name,
		fmt.Sprintf("moved lane=%d term=%d µs=%.1f", p.lane.id, p.term, took.Microseconds()))
}

// load reports and failure detection ---------------------------------

func (b *Balancer) handleReport(c *ctrlMsg) {
	var bi *brokerInfo
	for _, cand := range b.brokers {
		if cand.m.EP == c.from {
			bi = cand
		}
	}
	if bi == nil {
		return
	}
	now := b.m.Kern.Kernel().Now()
	rebooted := bi.heard && c.inc > bi.lastInc
	wasDown := bi.down
	bi.lastRep = now
	bi.lastInc = c.inc
	bi.heard = true
	bi.down = false
	for _, lb := range c.laneBytes {
		for _, l := range bi.lanes {
			if l.id == lb.lane {
				l.bytes += lb.bytes
				l.recent += lb.bytes
			}
		}
	}
	for _, vb := range c.vBytes {
		if p := b.places[vb.v]; p != nil {
			p.vbytes += vb.bytes
		}
	}
	if rebooted || wasDown {
		// The broker lost its assignments (crash wipe) or we wrote it
		// off and it came back: re-teach every placement we believe
		// it holds, at the current term. Idempotent on the broker.
		b.reteach(bi, rebooted)
	}
}

func (b *Balancer) reteach(bi *brokerInfo, rebooted bool) {
	vs := b.placementsOn(bi)
	if len(vs) == 0 {
		return
	}
	b.record("re-teach node%d (%d placements, rebooted=%v)", bi.node, len(vs), rebooted)
	for _, v := range vs {
		p := b.places[v]
		if b.migs[v] != nil {
			continue // the running migration will install fresh state
		}
		b.sendCtrl(bi.m.EP,
			&ctrlMsg{kind: ctrlAssign, v: p.v, name: p.name, term: p.term,
				lane: p.lane.id, consumer: p.cons}, nil)
	}
}

// placementsOn lists vchannel ids currently placed on a broker,
// ascending for determinism.
func (b *Balancer) placementsOn(bi *brokerInfo) []uint64 {
	var vs []uint64
	for v, p := range b.places {
		if p.lane.broker == bi {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// sweep runs on the report period: a broker silent past silenceAfter
// is written off and its placements evacuated (the crash-driven
// migration path).
func (b *Balancer) sweep() {
	now := b.m.Kern.Kernel().Now()
	for _, bi := range b.brokers {
		if bi.down {
			continue
		}
		last := bi.lastRep
		if !bi.heard {
			continue // never reported yet: give it the first window
		}
		if now.Sub(last) > silenceAfter {
			b.markDead(bi)
		}
	}
}

// markDead writes off a silent broker and evacuates its placements.
func (b *Balancer) markDead(bi *brokerInfo) {
	bi.down = true
	b.record("broker node%d dead (silent)", bi.node)
	b.tracer().Emit(trace.KMigrate, 0, b.m.Name(), "vchan",
		fmt.Sprintf("broker node%d dead (silent)", bi.node))
	for _, v := range b.placementsOn(bi) {
		p := b.places[v]
		if b.migs[v] != nil {
			continue
		}
		b.migrate(v, b.pickLane(p.lane), "broker-silent")
	}
}

// autoSweep is load-driven rebalancing: when the hottest lane's
// recent bytes exceed autoRatio × the coldest live lane's, move the
// heaviest vchannel off the hot lane.
func (b *Balancer) autoSweep() {
	var hot, cold *laneInfo
	for _, l := range b.lanes {
		if l.broker.down {
			continue
		}
		if hot == nil || l.recent > hot.recent {
			hot = l
		}
		if cold == nil || l.recent < cold.recent {
			cold = l
		}
	}
	defer func() {
		for _, l := range b.lanes {
			l.recent = 0
		}
	}()
	if hot == nil || cold == nil || hot == cold || hot.assigned < 2 {
		return
	}
	if float64(hot.recent) < autoRatio*float64(cold.recent+1) {
		return
	}
	// Heaviest tenant on the hot lane, lowest id on ties.
	var pick *placement
	for _, v := range b.placementsOnLane(hot) {
		p := b.places[v]
		if b.migs[v] != nil {
			continue
		}
		if pick == nil || p.vbytes > pick.vbytes {
			pick = p
		}
	}
	if pick == nil {
		return
	}
	b.record("auto: lane%d hot (%dB) vs lane%d (%dB), moving %s",
		hot.id, hot.recent, cold.id, cold.recent, pick.name)
	b.migrate(pick.v, cold, "auto")
}

func (b *Balancer) placementsOnLane(l *laneInfo) []uint64 {
	var vs []uint64
	for v, p := range b.places {
		if p.lane == l {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Placement reports a vchannel's current node and term (tests,
// reports).
func (b *Balancer) Placement(name string) (node int, lane uint32, term uint32, ok bool) {
	r := b.fab.byName[name]
	if r == nil {
		return 0, 0, 0, false
	}
	p := b.places[r.id]
	if p == nil {
		return 0, 0, 0, false
	}
	return p.lane.broker.node, p.lane.id, p.term, true
}

// ActiveMigrations reports how many placements are mid-move.
func (b *Balancer) ActiveMigrations() int { return len(b.migs) }
