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
// the system with Bind (and optionally BindResmgr/BindDFS/BindVChan),
// then Apply a schedule before running the simulation.
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

// arm schedules a resolved action at its absolute virtual time.
func (e *Engine) arm(a *action) {
	e.k.At(sim.Time(a.At), func() {
		switch a.Kind {
		case "link-down", "link-up":
			e.sys.IC.SetCubeLinkDown(a.link[0], a.link[1], a.Kind == "link-down")
			e.record(a.Kind, "cube %d-%d", a.link[0], a.link[1])
		case "degrade": // factor 1 restores full bandwidth
			e.sys.IC.SetCubeLinkSlowdown(a.link[0], a.link[1], a.slow)
			e.record("degrade", "cube %d-%d x%.2f", a.link[0], a.link[1], a.slow)
		case "crash":
			e.crashMachine(a.m)
		case "restart":
			if a.m.Kern.Crashed() {
				a.m.Kern.Restart()
				e.record("restart", "%s", a.m.Name())
			}
		case "gray":
			e.grayMachine(a.m, a.slow, a.drop)
		case "ungray":
			a.m.IF.SetGray(0, nil)
			e.record("ungray", "%s healthy", a.m.Name())
		case "partition":
			e.partition(a.groups)
		case "heal":
			// Every link the partition cut comes up again in one atomic
			// step; links failed by other means stay down.
			for _, l := range e.partCut {
				e.sys.IC.SetCubeLinkDown(l[0], l[1], false)
			}
			e.record("heal", "%d links restored", len(e.partCut))
			e.partCut = nil
		case "dfs-down", "dfs-up": // a server outage; the host stays alive
			e.fs.SetDown(a.host, a.Kind == "dfs-down")
			e.record(a.Kind, "host %d", a.host)
		case "rebalance":
			// The balancer's verdict is recorded: a vchannel already
			// mid-migration refuses the move, deterministically.
			ok := e.vb.MigrateTo(a.vchan, a.m.Index)
			e.record("rebalance", "%s -> %s ok=%v", a.vchan, a.m.Name(), ok)
		}
	})
}

// partition cuts the cube topology into disjoint reachability groups:
// every cube link whose two clusters land in different groups goes
// down in one atomic step. Clusters not listed in any group form an
// implicit final group. Links that were already down are left alone
// (they belong to whoever failed them), so the heal restores exactly
// the partition's own cut-set and nothing else.
func (e *Engine) partition(groups [][]topo.ClusterID) {
	tp := e.sys.Topo
	cut := 0
	for c := 0; c < tp.Clusters(); c++ {
		a := topo.ClusterID(c)
		for _, b := range tp.Neighbors(a) {
			if b <= a || groupOf(groups, a) == groupOf(groups, b) {
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

// grayMachine puts m into gray degradation: it stays up and keeps
// heartbeating, but its interrupt service runs slow times slower and —
// when dropProb > 0 — each arriving fabric frame is independently lost
// with probability dropProb. Drops draw from a generator seeded by the
// engine seed and the machine (index i for node<i>, i + 1<<16 for
// host<i>), so each gray machine's fate stream is deterministic
// regardless of how arrivals interleave across machines.
func (e *Engine) grayMachine(m *core.Machine, slow, dropProb float64) {
	var drop func(*hpc.Message) bool
	if dropProb > 0 {
		seedIdx := int64(m.Index)
		if m.Host {
			seedIdx += 1 << 16
		}
		rng := rand.New(rand.NewSource(e.seed ^ (seedIdx+1)*0x9E3779B97F4A7C1))
		drop = func(*hpc.Message) bool { return rng.Float64() < dropProb }
	}
	m.IF.SetGray(slow, drop)
	e.record("gray", "%s isr x%.1f drop %.2f", m.Name(), slow, dropProb)
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
