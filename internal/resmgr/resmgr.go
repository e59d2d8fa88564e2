// Package resmgr implements the two processor-allocation policies of
// paper §3.1.
//
// Meglos allocated processors to an application when it started
// running and returned them to the free pool the moment it finished —
// maximizing sharing (up to 15 protected processes per processor,
// with an "exclusive access" capability bolted on later), but
// creating the classic failure: while a programmer recompiles,
// somebody else starts an application with exclusive access on the
// remaining processors, and the rerun is greeted with "processors not
// available".
//
// VORX formalizes allocation: a user allocates all the processors he
// needs *before* running anything, and they stay his until explicitly
// freed. The residual problem — users forgetting to free processors —
// is handled the way the paper describes: a force-free command that
// can release another user's processors, "and request that it be used
// carefully".
package resmgr

import (
	"fmt"
	"sort"

	"hpcvorx/internal/sim"
)

// NodeID identifies a processing node in the pool.
type NodeID int

// ErrNotAvailable is the Meglos diagnostic the paper quotes.
var ErrNotAvailable = fmt.Errorf("processors not available")

// MaxProcessesPerNode is the Meglos per-processor process limit.
const MaxProcessesPerNode = 15

// --- Meglos policy ---

// Meglos is the allocate-at-run policy.
type Meglos struct {
	nodes []meglosNode
	apps  map[int]*MeglosApp
	seq   int
}

type meglosNode struct {
	procs     int // processes currently placed
	exclusive int // app id holding exclusive access, -1 if none
}

// MeglosApp is a running application's allocation.
type MeglosApp struct {
	ID    int
	Nodes []NodeID
}

// NewMeglos creates the policy over a pool of n processors.
func NewMeglos(n int) *Meglos {
	m := &Meglos{nodes: make([]meglosNode, n), apps: make(map[int]*MeglosApp)}
	for i := range m.nodes {
		m.nodes[i].exclusive = -1
	}
	return m
}

// StartApp places an application of `procs` processes, one per
// processor, allocating at start time. With exclusive set, the chosen
// processors admit no other processes while the app runs. Returns
// ErrNotAvailable when not enough processors qualify — the failure
// mode §3.1 describes.
func (m *Meglos) StartApp(procs int, exclusive bool) (*MeglosApp, error) {
	var chosen []NodeID
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.exclusive != -1 {
			continue
		}
		if exclusive && n.procs > 0 {
			continue
		}
		if n.procs >= MaxProcessesPerNode {
			continue
		}
		chosen = append(chosen, NodeID(i))
		if len(chosen) == procs {
			break
		}
	}
	if len(chosen) < procs {
		return nil, ErrNotAvailable
	}
	app := &MeglosApp{ID: m.seq, Nodes: chosen}
	m.seq++
	m.apps[app.ID] = app
	for _, id := range chosen {
		m.nodes[id].procs++
		if exclusive {
			m.nodes[id].exclusive = app.ID
		}
	}
	return app, nil
}

// EndApp finishes the application; its processors return to the free
// pool immediately and are available to anyone.
func (m *Meglos) EndApp(app *MeglosApp) {
	if _, ok := m.apps[app.ID]; !ok {
		return
	}
	delete(m.apps, app.ID)
	for _, id := range app.Nodes {
		m.nodes[id].procs--
		if m.nodes[id].exclusive == app.ID {
			m.nodes[id].exclusive = -1
		}
	}
}

// FreeProcessors counts processors with no exclusive holder and spare
// process slots.
func (m *Meglos) FreeProcessors() int {
	free := 0
	for i := range m.nodes {
		if m.nodes[i].exclusive == -1 && m.nodes[i].procs < MaxProcessesPerNode {
			free++
		}
	}
	return free
}

// --- VORX policy ---

// VORX is the allocate-before-run policy.
type VORX struct {
	k       *sim.Kernel
	owner   []string
	since   []sim.Time
	lastUse []sim.Time
	// ForceFrees counts uses of the force-free command.
	ForceFrees int
}

// NewVORX creates the policy over a pool of n processors.
func NewVORX(k *sim.Kernel, n int) *VORX {
	return &VORX{k: k, owner: make([]string, n), since: make([]sim.Time, n), lastUse: make([]sim.Time, n)}
}

// Allocate reserves n processors for user until explicitly freed.
func (v *VORX) Allocate(user string, n int) ([]NodeID, error) {
	return v.AllocateWhere(user, n, nil)
}

// AllocateWhere reserves n free processors satisfying ok, scanning in
// ascending id order like Allocate. The supervisor uses it to pick
// spare nodes for reincarnated subprocesses while excluding machines
// that are themselves crashed. A nil ok admits every free processor.
func (v *VORX) AllocateWhere(user string, n int, ok func(NodeID) bool) ([]NodeID, error) {
	if user == "" {
		return nil, fmt.Errorf("resmgr: empty user")
	}
	var chosen []NodeID
	for i := range v.owner {
		if v.owner[i] != "" {
			continue
		}
		if ok != nil && !ok(NodeID(i)) {
			continue
		}
		chosen = append(chosen, NodeID(i))
		if len(chosen) == n {
			break
		}
	}
	if len(chosen) < n {
		return nil, ErrNotAvailable
	}
	now := v.k.Now()
	for _, id := range chosen {
		v.owner[id] = user
		v.since[id] = now
		v.lastUse[id] = now
	}
	return chosen, nil
}

// Use records activity on a processor (running an application touches
// it); feeds the idle-reclaim report.
func (v *VORX) Use(id NodeID) { v.lastUse[id] = v.k.Now() }

// OwnerOf returns the user holding a processor ("" = free).
func (v *VORX) OwnerOf(id NodeID) string { return v.owner[id] }

// Owned returns the processors held by user, ascending.
func (v *VORX) Owned(user string) []NodeID {
	var out []NodeID
	for i, o := range v.owner {
		if o == user {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Free releases processors the user owns. Releasing someone else's
// processor is an error — use ForceFree for that.
func (v *VORX) Free(user string, ids []NodeID) error {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(v.owner) {
			return fmt.Errorf("resmgr: bad processor %d", id)
		}
		if v.owner[id] != user {
			return fmt.Errorf("resmgr: processor %d owned by %q, not %q", id, v.owner[id], user)
		}
	}
	for _, id := range ids {
		v.owner[id] = ""
	}
	return nil
}

// ForceFree releases processors regardless of owner — the command the
// paper provides for abandoned allocations, "and request that it be
// used carefully". It returns the owners whose processors were taken.
func (v *VORX) ForceFree(ids []NodeID) []string {
	ownersSet := map[string]bool{}
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(v.owner) {
			continue
		}
		if v.owner[id] != "" {
			ownersSet[v.owner[id]] = true
		}
		v.owner[id] = ""
	}
	v.ForceFrees++
	owners := make([]string, 0, len(ownersSet))
	for o := range ownersSet {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	return owners
}

// IdleFor returns the processors owned by someone but unused for at
// least d — the candidates the paper's rejected automatic-reclaim
// schemes would have targeted; here they are only reported.
func (v *VORX) IdleFor(d sim.Duration) []NodeID {
	var out []NodeID
	now := v.k.Now()
	for i, o := range v.owner {
		if o != "" && now.Sub(v.lastUse[i]) >= d {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// FreeProcessors counts unowned processors.
func (v *VORX) FreeProcessors() int {
	n := 0
	for _, o := range v.owner {
		if o == "" {
			n++
		}
	}
	return n
}

// AutoReclaim frees every processor idle for at least d and returns
// the reclaimed ids. The paper *considered* automatic reclamation
// ("automatically freeing them when a user logs off ... or when there
// is no activity for several hours") and rejected it because every
// variant has objectionable properties — demonstrated by the tests:
// a user who is thinking, not typing, loses the processors mid-
// session. It is provided as an explicitly invoked policy only.
func (v *VORX) AutoReclaim(d sim.Duration) []NodeID {
	idle := v.IdleFor(d)
	for _, id := range idle {
		v.owner[id] = ""
	}
	return idle
}
