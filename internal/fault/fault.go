// Package fault is the deterministic fault-injection engine: a seeded
// source of failures scheduled as virtual-time events on the sim
// clock. It can fail and repair HPC cube links, degrade their
// bandwidth, crash and restart nodes and hosts, put them into gray
// degradation and take DFS servers down — and it drives the recovery
// half of the system: channel peers of a crashed machine get errors
// instead of hangs, the resource manager force-frees the dead node's
// processors (the §3.1 VORX policy), and DFS clients fail over to
// surviving replicas.
//
// Determinism: all fault times are virtual, gray drops draw from
// generators seeded by the engine seed and the gray machine, and every
// recovery action is scheduled on the same event clock — so one seed
// plus one schedule yields one bit-identical run.
// An engine with nothing scheduled costs nothing: no timers are armed
// and no hot path consults it.
package fault

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/vchan"
)

// Record is one fault or recovery action, in virtual-time order.
type Record struct {
	At     sim.Time
	Kind   string // "link-down", "crash", "detect", "force-free", ...
	Detail string
}

func (r Record) String() string {
	return fmt.Sprintf("%10v  %-11s %s", r.At, r.Kind, r.Detail)
}

// ackTimeout is how long a channel write waits for its end-to-end ack
// before Bind's recovery retransmits it.
const ackTimeout = 5 * sim.Millisecond

// Engine schedules faults and wires recovery. Create with New, attach
// the system with Bind (and optionally BindResmgr/BindDFS), then
// schedule fault events before running the simulation.
type Engine struct {
	k   *sim.Kernel
	sys *core.System
	res *resmgr.VORX
	fs  *dfs.Service
	vb  *vchan.Balancer

	// DetectDelay models how long the LAM takes to notice a crashed
	// machine before survivors are told (peer-death errors, force-
	// free). Default 2 ms. Configurable so oracle detection can be
	// compared with the supervisor's heartbeat detection at equal
	// delays (`vorx chaos -detect`).
	DetectDelay sim.Duration
	// oracleOff disables the engine's omniscient crash detection: the
	// engine still crashes machines, but nobody is told — survivors
	// hang on their timeouts unless a supervision layer
	// (internal/super) detects the death by heartbeat loss and drives
	// recovery itself. Kept behind a flag so oracle and heartbeat
	// detection can be A/B-tested on the same schedule.
	oracleOff bool
	// MaxRetries bounds the channel end-to-end retransmits Bind
	// installs on every machine, each after ackTimeout. Default 3.
	MaxRetries int

	seed int64
	// partCut remembers which cube links the active partition cut (and
	// only those: links that were already down stay down across a
	// heal).
	partCut [][2]topo.ClusterID

	recs []Record
}

// New creates an engine on kernel k. seed drives gray drops;
// scheduled (non-probabilistic) faults do not consume it.
func New(k *sim.Kernel, seed int64) *Engine {
	return &Engine{
		k:           k,
		seed:        seed,
		DetectDelay: 2 * sim.Millisecond,
		MaxRetries:  3,
	}
}

// Bind attaches the engine to a system and arms end-to-end channel
// recovery on every machine (writes time out, retransmit, and report
// peer death instead of hanging).
func (e *Engine) Bind(sys *core.System) {
	e.sys = sys
	for _, m := range sys.Machines() {
		m.Chans.SetAckTimeout(ackTimeout, e.MaxRetries)
	}
}

// SetOracle turns the engine's omniscient crash detection on or off.
// It is on by default (the PR 1 behaviour: PeerDown and force-free
// fire DetectDelay after every crash). Turn it off when a supervisor
// owns detection, so deaths are noticed by heartbeat loss instead.
func (e *Engine) SetOracle(on bool) { e.oracleOff = !on }

// BindResmgr makes node crashes force-free the dead node's processors.
func (e *Engine) BindResmgr(res *resmgr.VORX) { e.res = res }

// BindDFS attaches a file service for dfs-down/dfs-up schedule ops.
func (e *Engine) BindDFS(fs *dfs.Service) { e.fs = fs }

// BindVChan attaches a virtual-channel balancer so `rebalance`
// schedule ops resolve (and validate against the declared vchannels).
func (e *Engine) BindVChan(b *vchan.Balancer) { e.vb = b }

// RebalanceAt schedules a placement change: move the named vchannel
// to a lane on the given node at virtual time at. The engine records
// the balancer's verdict — a vchannel already mid-migration refuses
// the op, deterministically.
func (e *Engine) RebalanceAt(at sim.Duration, name string, node int) {
	e.k.After(at, func() {
		ok := e.vb.MigrateTo(name, node)
		e.record("rebalance", "%s -> node%d ok=%v", name, node, ok)
	})
}

// Records returns every fault and recovery action so far, in
// virtual-time order.
func (e *Engine) Records() []Record { return e.recs }

// Report writes the fault/recovery log.
func (e *Engine) Report(w io.Writer) {
	fmt.Fprintf(w, "fault log (%d events):\n", len(e.recs))
	for _, r := range e.recs {
		fmt.Fprintln(w, " ", r)
	}
}

func (e *Engine) record(kind, format string, args ...any) {
	e.recs = append(e.recs, Record{At: e.k.Now(), Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// CubeLinkDownAt fails the cube link between clusters a and b at
// virtual time at.
func (e *Engine) CubeLinkDownAt(at sim.Duration, a, b topo.ClusterID) {
	e.k.At(sim.Time(at), func() {
		e.sys.IC.SetCubeLinkDown(a, b, true)
		e.record("link-down", "cube %d-%d", a, b)
	})
}

// CubeLinkUpAt repairs the cube link between a and b at time at.
func (e *Engine) CubeLinkUpAt(at sim.Duration, a, b topo.ClusterID) {
	e.k.At(sim.Time(at), func() {
		e.sys.IC.SetCubeLinkDown(a, b, false)
		e.record("link-up", "cube %d-%d", a, b)
	})
}

// DegradeCubeLinkAt multiplies the a-b link's wire time by factor at
// time at (factor <= 1 restores full bandwidth).
func (e *Engine) DegradeCubeLinkAt(at sim.Duration, a, b topo.ClusterID, factor float64) {
	e.k.At(sim.Time(at), func() {
		e.sys.IC.SetCubeLinkSlowdown(a, b, factor)
		e.record("degrade", "cube %d-%d x%.2f", a, b, factor)
	})
}

// CrashNodeAt crashes processing node i at time at; recovery (peer
// death, force-free) follows after DetectDelay.
func (e *Engine) CrashNodeAt(at sim.Duration, i int) {
	e.k.At(sim.Time(at), func() { e.crashMachine(e.sys.Node(i)) })
}

// RestartNodeAt restarts processing node i at time at.
func (e *Engine) RestartNodeAt(at sim.Duration, i int) {
	e.k.At(sim.Time(at), func() { e.restartMachine(e.sys.Node(i)) })
}

// CrashHostAt crashes host workstation i at time at. Its DFS server
// (if any) dies with it; clients fail over on transport errors.
func (e *Engine) CrashHostAt(at sim.Duration, i int) {
	e.k.At(sim.Time(at), func() { e.crashMachine(e.sys.Host(i)) })
}

// RestartHostAt restarts host workstation i at time at.
func (e *Engine) RestartHostAt(at sim.Duration, i int) {
	e.k.At(sim.Time(at), func() { e.restartMachine(e.sys.Host(i)) })
}

// DFSDownAt marks DFS host server i software-down at time at (the
// host machine stays alive — a server outage, not a crash).
func (e *Engine) DFSDownAt(at sim.Duration, host int) {
	e.k.At(sim.Time(at), func() {
		e.fs.SetDown(host, true)
		e.record("dfs-down", "host %d", host)
	})
}

// DFSUpAt brings DFS host server i back at time at.
func (e *Engine) DFSUpAt(at sim.Duration, host int) {
	e.k.At(sim.Time(at), func() {
		e.fs.SetDown(host, false)
		e.record("dfs-up", "host %d", host)
	})
}

// PartitionAt cuts the cube topology into disjoint reachability groups
// at time at: every cube link whose two clusters land in different
// groups goes down in one atomic step. Clusters not listed in any
// group form an implicit final group. Links that were already down are
// left alone (they belong to whoever failed them), so a later HealAt
// restores exactly the partition's own cut-set and nothing else.
func (e *Engine) PartitionAt(at sim.Duration, groups [][]topo.ClusterID) {
	e.k.At(sim.Time(at), func() { e.partition(groups) })
}

func (e *Engine) partition(groups [][]topo.ClusterID) {
	tp := e.sys.Topo
	groupOf := make(map[topo.ClusterID]int, tp.Clusters())
	for gi, g := range groups {
		for _, c := range g {
			groupOf[c] = gi
		}
	}
	rest := len(groups)
	for c := 0; c < tp.Clusters(); c++ {
		if _, ok := groupOf[topo.ClusterID(c)]; !ok {
			groupOf[topo.ClusterID(c)] = rest
		}
	}
	cut := 0
	for c := 0; c < tp.Clusters(); c++ {
		a := topo.ClusterID(c)
		for _, b := range tp.Neighbors(a) {
			if b <= a || groupOf[a] == groupOf[b] {
				continue
			}
			if e.sys.IC.CubeLinkDown(a, b) {
				continue // already down: not this partition's to heal
			}
			e.sys.IC.SetCubeLinkDown(a, b, true)
			e.partCut = append(e.partCut, [2]topo.ClusterID{a, b})
			cut++
		}
	}
	e.record("partition", "%s: %d links cut", groupsDesc(groups), cut)
}

// HealAt merges the partition back at time at: every link the
// partition cut comes up again in one atomic step. Links failed by
// other means (link-down ops, earlier outages) stay down.
func (e *Engine) HealAt(at sim.Duration) {
	e.k.At(sim.Time(at), func() {
		for _, l := range e.partCut {
			e.sys.IC.SetCubeLinkDown(l[0], l[1], false)
		}
		e.record("heal", "%d links restored", len(e.partCut))
		e.partCut = nil
	})
}

func groupsDesc(groups [][]topo.ClusterID) string {
	var b strings.Builder
	for gi, g := range groups {
		if gi > 0 {
			b.WriteByte('|')
		}
		sorted := append([]topo.ClusterID(nil), g...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for ci, c := range sorted {
			if ci > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", c)
		}
	}
	return b.String()
}

// GrayNodeAt puts processing node i into gray degradation at time at:
// the node stays up and keeps heartbeating, but its interrupt service
// runs slow times slower and — when dropProb > 0 — each arriving
// fabric frame is independently lost with probability dropProb. Drops
// draw from a generator seeded by the engine seed and the node index,
// so each gray node's fate stream is deterministic regardless of how
// arrivals interleave across nodes.
func (e *Engine) GrayNodeAt(at sim.Duration, i int, slow, dropProb float64) {
	e.k.At(sim.Time(at), func() { e.grayMachine(e.sys.Node(i), slow, dropProb, int64(i)) })
}

// UngrayNodeAt restores node i to healthy at time at.
func (e *Engine) UngrayNodeAt(at sim.Duration, i int) {
	e.k.At(sim.Time(at), func() { e.ungrayMachine(e.sys.Node(i)) })
}

// GrayHostAt puts host workstation i into gray degradation at time at.
func (e *Engine) GrayHostAt(at sim.Duration, i int, slow, dropProb float64) {
	e.k.At(sim.Time(at), func() { e.grayMachine(e.sys.Host(i), slow, dropProb, int64(i)+1<<16) })
}

// UngrayHostAt restores host i to healthy at time at.
func (e *Engine) UngrayHostAt(at sim.Duration, i int) {
	e.k.At(sim.Time(at), func() { e.ungrayMachine(e.sys.Host(i)) })
}

func (e *Engine) grayMachine(m *core.Machine, slow, dropProb float64, seedIdx int64) {
	var drop func(*hpc.Message) bool
	if dropProb > 0 {
		rng := rand.New(rand.NewSource(e.seed ^ (seedIdx+1)*0x9E3779B97F4A7C1))
		drop = func(*hpc.Message) bool { return rng.Float64() < dropProb }
	}
	m.IF.SetGray(slow, drop)
	e.record("gray", "%s isr x%.1f drop %.2f", m.Name(), slow, dropProb)
}

func (e *Engine) ungrayMachine(m *core.Machine) {
	m.IF.SetGray(0, nil)
	e.record("ungray", "%s healthy", m.Name())
}

func (e *Engine) crashMachine(m *core.Machine) {
	if m.Kern.Crashed() {
		return
	}
	m.Kern.Crash()
	e.record("crash", "%s", m.Name())
	if e.oracleOff {
		return // detection is somebody else's job (internal/super)
	}
	e.k.After(e.DetectDelay, func() {
		if !m.Kern.Crashed() {
			return // restarted before anyone noticed
		}
		failed := 0
		for _, other := range e.sys.Machines() {
			if other == m || other.Kern.Crashed() {
				continue
			}
			failed += other.Chans.PeerDown(m.EP)
		}
		e.record("detect", "%s dead: %d channel ends failed", m.Name(), failed)
		if e.res != nil && !m.Host {
			owners := e.res.ForceFree([]resmgr.NodeID{resmgr.NodeID(m.Index)})
			e.record("force-free", "node %d (owners %v)", m.Index, owners)
		}
	})
}

func (e *Engine) restartMachine(m *core.Machine) {
	if !m.Kern.Crashed() {
		return
	}
	m.Kern.Restart()
	e.record("restart", "%s", m.Name())
}
