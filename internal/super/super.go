// Package super is the cluster supervision layer: it turns the §3.1
// lesson — resource management and crash cleanup belong in the system,
// not in cooperating applications — into a running service. Where the
// fault engine (internal/fault) plays an omniscient oracle that tells
// survivors about a crash after a fixed delay, the supervisor *detects*
// death the way a production LAM must: every monitored machine's kernel
// emits periodic heartbeats over the ordinary channel/netif fabric, and
// a supervisor service on a host workstation maintains a membership
// view with suspect and confirm timeouts in virtual time.
//
// Detection alone only converts hangs into errors. To recover the lost
// work, subprocesses opt in to checkpoint/restart: they register a
// Checkpointer that serializes their state, the supervisor snapshots it
// on an interval (shipping the bytes host-ward over the fabric, so the
// checkpoint cost is visible in the simulation), and on confirmed death
// the subprocess is restarted from its last checkpoint on a spare node
// allocated through resmgr.VORX. The survivors' channel ends are
// rebound to the reincarnated peer's new topo.EndpointID: unacked (and
// retained-but-unstable) writes are retransmitted to the new endpoint,
// and sequence state reconciles from the checkpoint's high-water marks,
// so delivery stays exactly-once end to end.
//
// Determinism: heartbeats, sweeps, and checkpoints are virtual-time
// beacons on the sim clock; membership and channel registries iterate
// in sorted order; one seed plus one schedule yields one bit-identical
// run. A system with no Supervisor constructed registers no services
// and arms no timers — byte-identical to the unsupervised system.
package super

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

// Wire sizes and costs of the supervision protocol.
const (
	// HeartbeatBytes is the wire size of one heartbeat.
	HeartbeatBytes = 16
	// StableBytes is the wire size of a stable-mark notice.
	StableBytes = 24
	// CkptHeaderBytes is the framing around a checkpoint transfer.
	CkptHeaderBytes = 64
)

// RestartDelay models downloading the image to a spare node and
// cold-booting the subprocess there.
const RestartDelay = 1 * sim.Millisecond

// HeartbeatISR is the supervisor-side cost to absorb one heartbeat.
const HeartbeatISR = 4 * sim.Microsecond

// StableISR is the cost to absorb a stable-mark notice.
const StableISR = 4 * sim.Microsecond

// State is a monitored machine's membership state.
type State int

// Membership states.
const (
	Alive State = iota
	Suspect
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Config tunes the supervision timers. Zero fields take defaults.
type Config struct {
	// HeartbeatEvery (H) is the node → supervisor heartbeat period; a
	// machine silent for 2H is suspected. Default 500 µs.
	HeartbeatEvery sim.Duration
	// ConfirmAfter (T) is the silence before death is confirmed and
	// recovery begins. Default 4H.
	ConfirmAfter sim.Duration
	// CheckpointEvery (C) is the snapshot interval for registered
	// tasks. Longer intervals cost less but lose more work on a
	// crash. Default 2 ms.
	CheckpointEvery sim.Duration
	// Fence enables partition-tolerant supervision: deaths are only
	// confirmed while the supervisor can see a majority of the cluster
	// (itself plus the fresh members), and every confirm broadcasts an
	// incarnation fence so a zombie on the minority side of a partition
	// is structurally refused after the heal instead of resuming as a
	// second active incarnation. Off by default — the classic profile
	// trusts silence.
	Fence bool
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * sim.Microsecond
	}
	if c.ConfirmAfter <= 0 {
		c.ConfirmAfter = 4 * c.HeartbeatEvery
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * sim.Millisecond
	}
	return c
}

// Record is one supervision event, in virtual-time order.
type Record struct {
	At     sim.Time
	Kind   string // "suspect", "confirm", "spare", "restart", "rebind", ...
	Detail string
}

func (r Record) String() string {
	return fmt.Sprintf("%10v  %-11s %s", r.At, r.Kind, r.Detail)
}

// Mark is a channel's checkpoint high-water mark: how many messages
// the checkpointed state fully accounts for in each direction. Read
// counts messages consumed *and folded into the state*; Written counts
// messages whose Write completed before the state was taken. The
// Checkpointer contract is that state and marks are mutually
// consistent — track both in application variables and snapshot them
// together.
type Mark struct {
	Read    int
	Written int
}

// Checkpointer serializes a task's application state. Checkpoint is
// called from event context on the supervisor's interval; it must
// return a self-contained byte snapshot plus, for every attached
// channel (keyed by channel name), the Mark the state accounts for.
// On restart, the task must regenerate the same logical message stream
// from its state: replayed writes carry their original sequence
// numbers, and the peer's kernel deduplicates them, so determinism of
// the regeneration is what makes delivery exactly-once. Checkpointed
// writer ends must use the default window of 1 (stop-and-wait), so
// that "Write returned" implies "peer delivered".
type Checkpointer interface {
	Checkpoint() (state []byte, marks map[string]Mark)
}

// RespawnFunc is a task body. It runs once per incarnation: generation
// 0 at Launch, and again on every spare node the supervisor restarts
// the task on. inc carries the restored state and the reincarnated
// channel ends (nil/empty on generation 0 — open channels normally and
// Attach them).
type RespawnFunc func(sp *kern.Subprocess, inc *Incarnation)

// Incarnation is what a restarted task wakes up holding.
type Incarnation struct {
	// State is the last committed checkpoint (nil on generation 0 or
	// when death beat the first checkpoint).
	State []byte
	// Gen counts incarnations: 0 is the original launch.
	Gen int
	// Machine is where this incarnation runs.
	Machine *core.Machine

	chans map[string]*channels.Channel
}

// Chan returns the reincarnated channel end with the given rendezvous
// name, or nil (generation 0 opens its channels itself).
func (in *Incarnation) Chan(name string) *channels.Channel { return in.chans[name] }

// Task is one supervised subprocess: a body the supervisor can respawn
// plus the checkpoint and channel registrations of its current
// incarnation.
type Task struct {
	sup     *Supervisor
	name    string
	prio    int
	mach    *core.Machine
	respawn RespawnFunc
	ck      Checkpointer
	gen     int
	snap    snapshot
}

type snapshot struct {
	at    sim.Time
	state []byte
}

// SetBody sets or replaces the task body. NewTask accepts the body
// directly; SetBody exists for bodies whose closures need to reference
// the Task itself (for Attach/SetCheckpointer). Set it before Launch.
func (t *Task) SetBody(body RespawnFunc) { t.respawn = body }

// SetCheckpointer registers the incarnation's state serializer. Call
// it from the task body, every incarnation; until it is called the
// task has no checkpoint and a restart resumes from the last committed
// snapshot (or from scratch).
func (t *Task) SetCheckpointer(ck Checkpointer) { t.ck = ck }

// Attach registers a channel end the task owns, enabling endpoint
// migration: the peer end starts retaining acknowledged writes until
// this task's checkpoints stabilize them, and neither end fails on its
// own timeout verdict — the supervisor decides death. Call from the
// task body after Open; reincarnated ends (Incarnation.Chan) are
// already attached.
func (t *Task) Attach(ch *channels.Channel) {
	s := t.sup
	id := ch.ID()
	mc := s.chansByID[id]
	if mc == nil {
		mc = &managedChan{name: ch.Name()}
		mc.ends[0] = &chanEnd{ep: t.mach.EP}
		mc.ends[1] = &chanEnd{ep: ch.Peer()}
		s.chansByID[id] = mc
		s.chanOrder = append(s.chanOrder, id)
	}
	e := mc.endAt(t.mach.EP)
	if e == nil {
		panic(fmt.Sprintf("super: task %q attaching channel %q from unexpected endpoint", t.name, ch.Name()))
	}
	e.task = t
	// Our own end: supervised, so peer silence means "wait for the
	// supervisor's verdict", not "declare the peer dead".
	ch.SetManaged(false)
	// The peer end must retain acknowledged writes until our
	// checkpoints stabilize them: they are the replay source if we die.
	if pm := s.sys.ByEndpoint(ch.Peer()); pm != nil {
		if pch := pm.Chans.ByID(id); pch != nil {
			pch.SetManaged(true)
		}
	}
}

// Launch spawns the task's generation-0 incarnation on its home
// machine.
func (t *Task) Launch() {
	s := t.sup
	inc := &Incarnation{Gen: 0, Machine: t.mach, chans: map[string]*channels.Channel{}}
	s.sys.Spawn(t.mach, fmt.Sprintf("%s#0", t.name), t.prio, func(sp *kern.Subprocess) {
		t.respawn(sp, inc)
	})
}

// managedChan is the supervisor's registry entry for one supervised
// channel: both ends' current endpoints, owning tasks, and stable
// checkpoint marks.
type managedChan struct {
	name string
	ends [2]*chanEnd
}

type chanEnd struct {
	task *Task // nil when this end is an unsupervised survivor
	ep   topo.EndpointID
	mark Mark // from the owning task's last committed checkpoint
}

func (mc *managedChan) endAt(ep topo.EndpointID) *chanEnd {
	for _, e := range mc.ends {
		if e.ep == ep {
			return e
		}
	}
	return nil
}

func (mc *managedChan) other(e *chanEnd) *chanEnd {
	if mc.ends[0] == e {
		return mc.ends[1]
	}
	return mc.ends[0]
}

type member struct {
	m        *core.Machine
	lastSeen sim.Time
	state    State
	// lastInc is the highest incarnation seen in a heartbeat from this
	// machine (1 until the first restart: machines boot at 1).
	lastInc uint32
	// held marks a member whose confirm is gated on quorum, so the
	// "quorum-hold" record fires once per outage rather than per sweep.
	held bool
}

// wire message bodies
type hbMsg struct{ from topo.EndpointID }

type ckptMsg struct {
	task  *Task
	gen   int // incarnation that took the snapshot; stale gens are dropped
	state []byte
	marks map[string]Mark
}

type stableMsg struct {
	ch     uint64
	stable int
}

// Supervisor is the supervision service. Create with New (which
// registers its fabric services), register tasks with NewTask, then
// Start it and give it a horizon with StopAt — beacons tick until
// stopped, and a simulation only quiesces once they do.
type Supervisor struct {
	sys  *core.System
	host *core.Machine
	res  *resmgr.VORX
	cfg  Config

	members   map[topo.EndpointID]*member
	order     []topo.EndpointID // sorted, for deterministic sweeps
	tasks     []*Task
	chansByID map[uint64]*managedChan
	chanOrder []uint64
	stops     []func()
	started   bool

	recs     []Record
	verifier Verifier
	// outage tracks a fence-mode quorum loss across sweeps, so the
	// regain edge can void silence accumulated while blind.
	outage bool

	// Stats.
	Heartbeats    int // heartbeats absorbed
	Checkpoints   int // snapshots committed
	Restarts      int // task incarnations spawned on spares
	Rebinds       int // surviving channel ends repointed
	EndsFailed    int // unmanaged/orphaned ends given peer-death errors
	FalseSuspects int // suspicions cleared by a late heartbeat
	QuorumHolds   int // confirms held for lack of quorum (fence mode)
	FencesSent    int // fence notes broadcast on confirm (fence mode)
}

// Verifier observes supervision decisions for the invariant checker
// (internal/verify): fence installations and task migrations, which
// together define where each machine incarnation may legitimately be
// active. Hooks fire in both classic and fence mode — in classic mode
// the checker uses them to demonstrate what the silence-trusting path
// lets through.
type Verifier interface {
	// MachineFenced fires when a confirm broadcasts an incarnation
	// floor for the machine at ep.
	MachineFenced(ep topo.EndpointID, minInc uint32)
	// TaskMigrated fires when a supervised channel end migrates off a
	// confirmed-dead machine: frames on ch from staleEP stamped at or
	// below staleInc now belong to a superseded incarnation.
	TaskMigrated(ch uint64, staleEP topo.EndpointID, staleInc uint32, newEP topo.EndpointID)
}

// SetVerifier installs the supervision observer (nil to remove).
func (s *Supervisor) SetVerifier(v Verifier) { s.verifier = v }

// New creates a supervisor running on host (one of sys's machines,
// conventionally a workstation) and monitoring every processing node.
// res may be nil (no force-free, spares picked from all live nodes).
// Registering the fabric services happens here, so build the
// supervisor before traffic flows.
func New(sys *core.System, host *core.Machine, res *resmgr.VORX, cfg Config) *Supervisor {
	s := &Supervisor{
		sys: sys, host: host, res: res, cfg: cfg.withDefaults(),
		members:   make(map[topo.EndpointID]*member),
		chansByID: make(map[uint64]*managedChan),
	}
	hcosts := host.Kern.Costs()
	host.IF.Register("super.hb", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return HeartbeatISR },
		Handle: s.handleHeartbeat,
	})
	host.IF.Register("super.ckpt", netif.Service{
		Cost: func(m *hpc.Message) sim.Duration {
			return hcosts.KernelCopyTime(m.Size)
		},
		Handle: s.handleCheckpoint,
	})
	for _, m := range sys.Machines() {
		m := m
		m.IF.Register("super.stable", netif.Service{
			Cost:   func(*hpc.Message) sim.Duration { return StableISR },
			Handle: func(msg *hpc.Message) { s.handleStable(m, msg) },
		})
	}
	for _, n := range sys.Nodes() {
		if n == host {
			continue
		}
		s.members[n.EP] = &member{m: n, state: Alive, lastInc: 1}
		s.order = append(s.order, n.EP)
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	return s
}

// MemberState returns the membership state of the machine at ep.
func (s *Supervisor) MemberState(ep topo.EndpointID) State {
	if mb := s.members[ep]; mb != nil {
		return mb.state
	}
	return Alive
}

// NewTask registers a supervised task homed on machine m. The body
// runs once per incarnation; call Launch to spawn generation 0.
func (s *Supervisor) NewTask(name string, m *core.Machine, prio int, body RespawnFunc) *Task {
	if s.members[m.EP] == nil {
		panic(fmt.Sprintf("super: task %q homed on unmonitored machine %s", name, m.Name()))
	}
	t := &Task{sup: s, name: name, prio: prio, mach: m, respawn: body}
	s.tasks = append(s.tasks, t)
	return t
}

// Start arms the heartbeat, sweep, and checkpoint beacons.
func (s *Supervisor) Start() {
	if s.started {
		return
	}
	s.started = true
	now := s.sys.K.Now()
	mode := ""
	if s.cfg.Fence {
		mode = " fence=on"
	}
	s.record("start", "monitoring %d machines: H=%v suspect=%v confirm=%v ckpt=%v restart=%v%s",
		len(s.order), s.cfg.HeartbeatEvery, 2*s.cfg.HeartbeatEvery, s.cfg.ConfirmAfter,
		s.cfg.CheckpointEvery, RestartDelay, mode)
	for _, ep := range s.order {
		mb := s.members[ep]
		mb.lastSeen = now
		m := mb.m
		s.stops = append(s.stops, m.Kern.Beacon(s.cfg.HeartbeatEvery, func() {
			m.IF.SendAsync(s.host.EP, "super.hb", HeartbeatBytes, hbMsg{from: m.EP}, nil)
		}))
	}
	s.stops = append(s.stops,
		s.host.Kern.Beacon(s.cfg.HeartbeatEvery, s.sweep),
		s.host.Kern.Beacon(s.cfg.CheckpointEvery, s.checkpointAll))
}

// Stop cancels every beacon. Restarts already scheduled still fire.
func (s *Supervisor) Stop() {
	for _, st := range s.stops {
		st()
	}
	s.stops = nil
	if s.started {
		s.started = false
		s.record("stop", "supervision stopped")
	}
}

// StopAt schedules Stop at virtual time at — the supervision horizon.
// Without one, the beacons tick forever and the simulation never
// quiesces.
func (s *Supervisor) StopAt(at sim.Duration) {
	s.sys.K.At(sim.Time(at), s.Stop)
}

// FirstRecord returns the earliest record of the given kind at or
// after from.
func (s *Supervisor) FirstRecord(kind string, from sim.Time) (Record, bool) {
	for _, r := range s.recs {
		if r.Kind == kind && r.At >= from {
			return r, true
		}
	}
	return Record{}, false
}

// Report writes the supervision log.
func (s *Supervisor) Report(w io.Writer) {
	fmt.Fprintf(w, "supervision log (%d events):\n", len(s.recs))
	for _, r := range s.recs {
		fmt.Fprintln(w, " ", r)
	}
}

// tracer returns the unified event tracer (possibly nil): supervision
// events land on the host machine's "super" lane.
func (s *Supervisor) tracer() *trace.Tracer { return s.host.Kern.Tracer() }

func (s *Supervisor) record(kind, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	s.recs = append(s.recs, Record{At: s.sys.K.Now(), Kind: kind, Detail: detail})
	s.tracer().Emit(trace.KSuper, 0, s.host.Kern.Name(), "super", kind+" "+detail)
}

// handleHeartbeat runs at interrupt level on the supervisor's host.
func (s *Supervisor) handleHeartbeat(m *hpc.Message) {
	hb := m.Payload.(hbMsg)
	mb := s.members[hb.from]
	if mb == nil {
		return
	}
	s.Heartbeats++
	mb.lastSeen = s.sys.K.Now()
	if m.Inc > mb.lastInc {
		mb.lastInc = m.Inc
	}
	if tr := s.tracer(); tr.Enabled() {
		tr.Emit(trace.KHeartbeat, m.Trace, s.host.Kern.Name(), "super", mb.m.Name())
		tr.Count("super.heartbeats", 1)
	}
	switch mb.state {
	case Suspect:
		mb.state = Alive
		mb.held = false
		s.FalseSuspects++
		s.tracer().Count("super.false_suspects", 1)
		s.record("clear", "%s heartbeat resumed, suspicion cleared", mb.m.Name())
	case Dead:
		// A restarted machine beats again. It rejoins as a fresh
		// (empty) member: its pre-crash subprocesses were migrated
		// away or failed, and stay that way.
		mb.state = Alive
		mb.held = false
		s.record("rejoin", "%s rejoined as a fresh machine (inc %d)", mb.m.Name(), mb.lastInc)
	}
}

// sweep is the membership check: every heartbeat period, classify each
// monitored machine by how long it has been silent.
func (s *Supervisor) sweep() {
	now := s.sys.K.Now()
	if s.cfg.Fence {
		switch q := s.quorum(now); {
		case !q:
			s.outage = true
		case s.outage:
			// Quorum is back after an outage. Silence accumulated while
			// we lacked a majority view is not evidence of death — a
			// held suspect's heartbeat may simply not have crossed the
			// merged fabric yet — so void the held silence clocks and
			// let the confirm timeout run afresh from here.
			s.outage = false
			voided := 0
			for _, ep := range s.order {
				if mb := s.members[ep]; mb.held {
					mb.lastSeen = now
					mb.held = false
					voided++
				}
			}
			s.record("quorum-back", "majority view restored; silence clocks of %d held suspects voided", voided)
		}
	}
	for _, ep := range s.order {
		mb := s.members[ep]
		if mb.state == Dead {
			continue
		}
		silent := now.Sub(mb.lastSeen)
		switch {
		case silent >= s.cfg.ConfirmAfter:
			if s.cfg.Fence && s.outage {
				// Minority view: our silence verdicts are not to be
				// trusted — we may be the ones cut off. Hold the
				// suspects (no restart, no fence) and degrade until
				// heartbeats return.
				if mb.state == Alive {
					mb.state = Suspect
					s.record("suspect", "%s silent for %v", mb.m.Name(), silent)
				}
				if !mb.held {
					mb.held = true
					s.QuorumHolds++
					s.record("quorum-hold", "%s silent %v but no quorum; holding suspect, no restart",
						mb.m.Name(), silent)
				}
				continue
			}
			s.confirm(mb, silent)
		case silent >= 2*s.cfg.HeartbeatEvery && mb.state == Alive:
			mb.state = Suspect
			s.record("suspect", "%s silent for %v", mb.m.Name(), silent)
		}
	}
}

// quorum reports whether the supervisor currently sees a majority of
// the cluster: the fresh members (heard from within 2H) plus
// itself against the full membership plus itself. On the minority side
// of a partition this fails, and silence stops being evidence of
// death.
func (s *Supervisor) quorum(now sim.Time) bool {
	fresh := 0
	for _, ep := range s.order {
		mb := s.members[ep]
		if mb.state != Dead && now.Sub(mb.lastSeen) < 2*s.cfg.HeartbeatEvery {
			fresh++
		}
	}
	return (fresh+1)*2 > len(s.order)+1
}

// confirm declares a machine dead and drives recovery: peer-death
// errors for unmanaged channel ends, force-free of the dead node's
// processors, and checkpoint/restart migration for its tasks.
func (s *Supervisor) confirm(mb *member, silent sim.Duration) {
	mb.state = Dead
	mb.held = false
	s.record("confirm", "%s declared dead (silent %v)", mb.m.Name(), silent)
	s.tracer().Observe("super.detect.latency", float64(silent))
	if s.cfg.Fence {
		// Fence the dead incarnation before anything restarts: every
		// live machine refuses frames stamped below the floor, so if
		// the "dead" machine is actually a zombie behind a partition,
		// its post-heal traffic is structurally refused and the first
		// refusal tells it to reboot above the floor.
		floor := mb.lastInc + 1
		s.host.IF.Fence(mb.m.EP, floor)
		sent := 0
		for _, om := range s.sys.Machines() {
			if om == s.host || om == mb.m || om.Kern.Crashed() {
				continue
			}
			s.host.IF.SendFenceNote(om.EP, mb.m.EP, floor)
			sent++
		}
		s.FencesSent += sent
		s.record("fence", "%s fenced below inc %d (%d notes)", mb.m.Name(), floor, sent)
		if v := s.verifier; v != nil {
			v.MachineFenced(mb.m.EP, floor)
		}
	}
	failed := 0
	for _, other := range s.sys.Machines() {
		if other == mb.m || other.Kern.Crashed() {
			continue
		}
		failed += other.Chans.PeerDown(mb.m.EP)
	}
	s.EndsFailed += failed
	s.record("peer-down", "%s dead: %d unmanaged channel ends failed", mb.m.Name(), failed)
	if s.res != nil && !mb.m.Host {
		owners := s.res.ForceFree([]resmgr.NodeID{resmgr.NodeID(mb.m.Index)})
		s.record("force-free", "node %d (owners %v)", mb.m.Index, owners)
	}
	for _, t := range s.tasks {
		if t.mach == mb.m {
			s.migrate(t)
		}
	}
	// Managed ends whose dead peer carries no task get no
	// reincarnation: fail the survivors so they error out, not hang.
	for _, id := range s.chanIDs() {
		mc := s.chansByID[id]
		for i, e := range mc.ends {
			if e.ep != mb.m.EP || e.task != nil {
				continue
			}
			o := mc.ends[1-i]
			if om := s.sys.ByEndpoint(o.ep); om != nil && !om.Kern.Crashed() {
				if om.Chans.FailEnd(id) {
					s.EndsFailed++
					s.record("orphan", "channel %q: dead end had no task, survivor failed", mc.name)
				}
			}
		}
	}
}

// migrate picks a spare node for a dead machine's task and schedules
// its restart from the last committed checkpoint.
func (s *Supervisor) migrate(t *Task) {
	deadEP := t.mach.EP
	snap := t.snap
	var cands []topo.EndpointID
	byEP := make(map[topo.EndpointID]resmgr.NodeID)
	for i, n := range s.sys.Nodes() {
		if n.Kern.Crashed() || n == s.host {
			continue
		}
		// A spare must be a member we can currently hear: during a
		// partition the whole minority side is Suspect or Dead, and
		// restarting a task behind the cut would strand it.
		if mb := s.members[n.EP]; mb != nil && mb.state != Alive {
			continue
		}
		if s.res != nil && s.res.OwnerOf(resmgr.NodeID(i)) != "" {
			continue
		}
		if s.hostsTask(n) {
			continue
		}
		cands = append(cands, n.EP)
		byEP[n.EP] = resmgr.NodeID(i)
	}
	best := s.sys.Topo.Nearest(deadEP, cands)
	if best < 0 {
		s.record("no-spare", "task %q: no free live node; failing its channels", t.name)
		s.failTaskChannels(t)
		return
	}
	if s.res != nil {
		nid := byEP[best]
		if _, err := s.res.AllocateWhere("super", 1, func(id resmgr.NodeID) bool { return id == nid }); err != nil {
			s.record("no-spare", "task %q: %v", t.name, err)
			s.failTaskChannels(t)
			return
		}
	}
	spare := s.sys.ByEndpoint(best)
	s.record("spare", "task %q: %s (%d cube hops from dead %s)",
		t.name, spare.Name(), s.sys.Topo.Hops(deadEP, best), t.mach.Name())
	s.sys.K.After(RestartDelay, func() {
		if spare.Kern.Crashed() {
			s.record("no-spare", "task %q: spare %s crashed before restart", t.name, spare.Name())
			s.failTaskChannels(t)
			return
		}
		s.restart(t, spare, snap)
	})
}

// hostsTask reports whether any task's current incarnation lives on m
// (spares are spread: one task per machine).
func (s *Supervisor) hostsTask(m *core.Machine) bool {
	for _, t := range s.tasks {
		if t.mach == m {
			return true
		}
	}
	return false
}

// failTaskChannels gives a task's surviving peers peer-death errors
// when no reincarnation is possible.
func (s *Supervisor) failTaskChannels(t *Task) {
	for _, id := range s.chanIDs() {
		mc := s.chansByID[id]
		e := mc.endOf(t)
		if e == nil {
			continue
		}
		o := mc.other(e)
		if om := s.sys.ByEndpoint(o.ep); om != nil && !om.Kern.Crashed() {
			if om.Chans.FailEnd(id) {
				s.EndsFailed++
			}
		}
	}
}

func (mc *managedChan) endOf(t *Task) *chanEnd {
	for _, e := range mc.ends {
		if e.task == t {
			return e
		}
	}
	return nil
}

// restart spawns the task's next incarnation on the spare: channel
// ends are reincarnated with the checkpoint's sequence high-water
// marks, surviving peers are rebound to the new endpoint (replaying
// everything the checkpoint missed), and the body runs again.
func (s *Supervisor) restart(t *Task, spare *core.Machine, snap snapshot) {
	staleEP := t.mach.EP
	staleInc := uint32(1)
	if mb := s.members[staleEP]; mb != nil {
		staleInc = mb.lastInc
	}
	t.gen++
	t.mach = spare
	t.ck = nil // the new incarnation re-registers its checkpointer
	inc := &Incarnation{
		State: snap.state, Gen: t.gen, Machine: spare,
		chans: map[string]*channels.Channel{},
	}
	for _, id := range s.chanIDs() {
		mc := s.chansByID[id]
		e := mc.endOf(t)
		if e == nil {
			continue
		}
		o := mc.other(e)
		nch := spare.Chans.Reincarnate(id, mc.name, o.ep, e.mark.Written, e.mark.Read)
		if o.task != nil {
			// The peer is supervised too: retain our acknowledged
			// writes for its possible restart.
			nch.SetManaged(true)
		}
		e.ep = spare.EP
		inc.chans[mc.name] = nch
		if v := s.verifier; v != nil {
			v.TaskMigrated(id, staleEP, staleInc, spare.EP)
		}
		if om := s.sys.ByEndpoint(o.ep); om != nil && !om.Kern.Crashed() {
			if om.Chans.Rebind(id, spare.EP, e.mark.Read) {
				s.Rebinds++
				s.record("rebind", "channel %q: %s end rebound to %s, replay from seq %d",
					mc.name, om.Name(), spare.Name(), e.mark.Read)
			}
		}
	}
	s.Restarts++
	s.record("restart", "task %q gen %d on %s (checkpoint from %v, %d bytes)",
		t.name, t.gen, spare.Name(), snap.at, len(snap.state))
	s.sys.Spawn(spare, fmt.Sprintf("%s#%d", t.name, t.gen), t.prio, func(sp *kern.Subprocess) {
		t.respawn(sp, inc)
	})
}

// checkpointAll snapshots every live task's registered state and ships
// it to the supervisor host over the fabric.
func (s *Supervisor) checkpointAll() {
	for _, t := range s.tasks {
		if t.ck == nil || t.mach.Kern.Crashed() {
			continue
		}
		state, marks := t.ck.Checkpoint()
		st := append([]byte(nil), state...)
		mk := make(map[string]Mark, len(marks))
		for k, v := range marks {
			mk[k] = v
		}
		// Serializing the state costs the node a kernel copy at
		// interrupt level — the visible price of a short checkpoint
		// interval.
		t.mach.Kern.Interrupt(t.mach.Kern.Costs().KernelCopyTime(len(st)), nil)
		s.tracer().Emit(trace.KCheckpoint, 0, t.mach.Kern.Name(), "super",
			fmt.Sprintf("snapshot %q gen=%d %dB", t.name, t.gen, len(st)))
		t.mach.IF.SendAsync(s.host.EP, "super.ckpt", len(st)+CkptHeaderBytes,
			ckptMsg{task: t, gen: t.gen, state: st, marks: mk}, nil)
	}
}

// handleCheckpoint commits a snapshot on the supervisor's host and
// pushes stable marks out to retaining peers.
func (s *Supervisor) handleCheckpoint(m *hpc.Message) {
	ck := m.Payload.(ckptMsg)
	t := ck.task
	if ck.gen != t.gen {
		return // a stale incarnation's snapshot arrived after restart
	}
	t.snap = snapshot{at: s.sys.K.Now(), state: ck.state}
	s.Checkpoints++
	if tr := s.tracer(); tr.Enabled() {
		tr.Emit(trace.KCheckpoint, m.Trace, s.host.Kern.Name(), "super",
			fmt.Sprintf("commit %q gen=%d %dB", t.name, ck.gen, len(ck.state)))
		tr.Count("super.checkpoints", 1)
	}
	for _, id := range s.chanIDs() {
		mc := s.chansByID[id]
		e := mc.endOf(t)
		if e == nil {
			continue
		}
		mark, ok := ck.marks[mc.name]
		if !ok {
			continue
		}
		prev := e.mark
		e.mark = mark
		if mark.Read > prev.Read {
			// Everything below the new Read mark is in stable state:
			// the retaining peer can drop it.
			o := mc.other(e)
			if om := s.sys.ByEndpoint(o.ep); om != nil && !om.Kern.Crashed() {
				s.host.IF.SendAsync(o.ep, "super.stable", StableBytes,
					stableMsg{ch: id, stable: mark.Read}, nil)
			}
		}
	}
}

// handleStable runs at interrupt level on a retaining peer's machine.
func (s *Supervisor) handleStable(m *core.Machine, msg *hpc.Message) {
	sm := msg.Payload.(stableMsg)
	m.Chans.ReleaseRetained(sm.ch, sm.stable)
}

// chanIDs returns the supervised channel ids in ascending order.
func (s *Supervisor) chanIDs() []uint64 {
	ids := append([]uint64(nil), s.chanOrder...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
