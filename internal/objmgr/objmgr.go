// Package objmgr is the VORX communications object manager: the
// rendezvous service that maps channel names to channel ids
// (paper §3.2).
//
// Two processes open a channel by name; the open is handled by the
// manager responsible for that name, which pairs the two opens and
// tells each end who its peer is. Meglos ran one manager on a single
// host — a serialization bottleneck for systems beyond ten processors.
// VORX replicates the manager onto every processing node and uses
// distributed hashing to map a name to the node whose manager performs
// the open, so "because there are as many object managers as
// processing nodes, the channel opening bottleneck is eliminated".
//
// Both placements are available here: pass one manager endpoint for
// the Meglos arrangement or all node endpoints for the VORX one.
// Experiment E8 measures the difference under an open storm.
package objmgr

import (
	"fmt"
	"hash/fnv"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Mode selects rendezvous semantics for an open.
type Mode int

const (
	// OpenAny pairs with the next OpenAny of the same name, in
	// arrival order — the symmetric rendezvous of Meglos channels.
	OpenAny Mode = iota
	// Serve is the server half of the name-reuse mechanism that lets
	// "servers continually reuse a single channel name" (paper §4):
	// each Serve open pairs with one Connect open.
	Serve
	// Connect is the client half matching Serve.
	Connect
)

func (m Mode) String() string {
	switch m {
	case OpenAny:
		return "any"
	case Serve:
		return "serve"
	case Connect:
		return "connect"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Wire costs and sizes of the open protocol.
const (
	OpenRequestBytes = 64
	OpenReplyBytes   = 32
)

var (
	// ManagerProcess is the manager-side CPU cost to process one
	// open request (hash-table work plus reply generation).
	ManagerProcess = sim.Microseconds(45)
	// OpenOverhead is the opener-side kernel cost beyond the bare
	// system call.
	OpenOverhead = sim.Microseconds(25)
	// ReplyISR is the opener-side cost to absorb the reply.
	ReplyISR = sim.Microseconds(12)
)

// Pairing is the result of a successful open.
type Pairing struct {
	Chan uint64 // channel id, unique across the system
	Peer topo.EndpointID
}

// Manager is the collective object-manager service: per-manager
// pending tables plus the client-side reply plumbing on every node.
type Manager struct {
	ifs      map[topo.EndpointID]*netif.IF
	mgrs     []topo.EndpointID
	states   map[topo.EndpointID]*mgrState
	replies  map[uint64]func(Pairing) // client-side, keyed by token
	tokenSeq uint64
}

type mgrState struct {
	idSeq   uint64
	idx     int
	pending map[string]*nameQueue
	// Processed counts opens handled by this manager (the E8 load
	// distribution measurement).
	Processed int
}

type nameQueue struct {
	any, serve, connect []pendingOpen
}

type pendingOpen struct {
	ep    topo.EndpointID
	token uint64
}

type openReq struct {
	name  string
	mode  Mode
	from  topo.EndpointID
	token uint64
}

type openRep struct {
	token   uint64
	pairing Pairing
}

// New creates the object-manager service over the network interfaces
// in all. Names hash over the full managerEps list (one entry =
// Meglos-style centralized; all node endpoints = VORX-style fully
// distributed), but only the managers whose endpoints are in all are
// served here. A simulation shard passes its own interfaces: opens
// addressed to a manager on another shard travel the fabric to it, and
// each manager's state keeps its index in the global list, so the
// channel ids it mints do not depend on the split.
func New(all []*netif.IF, managerEps []topo.EndpointID) *Manager {
	if len(managerEps) == 0 {
		panic("objmgr: need at least one manager endpoint")
	}
	m := &Manager{
		ifs:     make(map[topo.EndpointID]*netif.IF),
		mgrs:    append([]topo.EndpointID(nil), managerEps...),
		states:  make(map[topo.EndpointID]*mgrState),
		replies: make(map[uint64]func(Pairing)),
	}
	for _, f := range all {
		m.ifs[f.Endpoint()] = f
		f.Register("objmgr.rep", netif.Service{
			Cost:   func(*hpc.Message) sim.Duration { return ReplyISR },
			Handle: m.handleReply,
		})
	}
	for i, ep := range managerEps {
		f, ok := m.ifs[ep]
		if !ok {
			continue // another shard serves this manager
		}
		st := &mgrState{idx: i, pending: make(map[string]*nameQueue)}
		m.states[ep] = st
		f.Register("objmgr", netif.Service{
			Cost:   func(*hpc.Message) sim.Duration { return ManagerProcess },
			Handle: func(msg *hpc.Message) { m.handleOpen(ep, st, msg) },
		})
	}
	return m
}

// Managers returns the manager endpoints.
func (m *Manager) Managers() []topo.EndpointID { return m.mgrs }

// Processed returns how many opens the manager at ep has handled.
func (m *Manager) Processed(ep topo.EndpointID) int {
	st, ok := m.states[ep]
	if !ok {
		return 0
	}
	return st.Processed
}

// ManagerFor maps a channel name to the endpoint whose manager owns it
// ("distributed hashing ... ensures that two processes that open a
// channel with the same name always hash to the same object manager").
func (m *Manager) ManagerFor(name string) topo.EndpointID {
	h := fnv.New32a()
	h.Write([]byte(name))
	return m.mgrs[int(h.Sum32())%len(m.mgrs)]
}

// Open performs a named rendezvous for the subprocess sp on node
// interface from. It blocks until a peer's matching open arrives and
// returns the pairing.
func (m *Manager) Open(sp *kern.Subprocess, from *netif.IF, name string, mode Mode) Pairing {
	sp.Syscall(OpenOverhead)
	token := m.tokenSeq
	m.tokenSeq++
	var result Pairing
	wake := sp.Block(kern.WaitOther, "open "+name)
	m.replies[token] = func(p Pairing) {
		result = p
		wake()
	}
	if err := from.Send(sp, m.ManagerFor(name), "objmgr", OpenRequestBytes,
		openReq{name: name, mode: mode, from: from.Endpoint(), token: token}); err != nil {
		panic(fmt.Sprintf("objmgr: open send: %v", err))
	}
	sp.BlockNow()
	return result
}

// handleOpen runs at interrupt level on the manager node.
func (m *Manager) handleOpen(ep topo.EndpointID, st *mgrState, msg *hpc.Message) {
	req := msg.Payload.(netif.Envelope).Body.(openReq)
	st.Processed++
	q := st.pending[req.name]
	if q == nil {
		q = &nameQueue{}
		st.pending[req.name] = q
	}
	switch req.mode {
	case OpenAny:
		q.any = append(q.any, pendingOpen{ep: req.from, token: req.token})
	case Serve:
		q.serve = append(q.serve, pendingOpen{ep: req.from, token: req.token})
	case Connect:
		q.connect = append(q.connect, pendingOpen{ep: req.from, token: req.token})
	}
	m.match(ep, st, req.name, q)
}

// match pairs pending opens for one name and sends the replies.
func (m *Manager) match(ep topo.EndpointID, st *mgrState, name string, q *nameQueue) {
	f := m.ifs[ep]
	pair := func(a, b pendingOpen) {
		id := uint64(st.idx) | (st.idSeq+1)<<16
		st.idSeq++
		f.SendAsync(a.ep, "objmgr.rep", OpenReplyBytes,
			openRep{token: a.token, pairing: Pairing{Chan: id, Peer: b.ep}}, nil)
		f.SendAsync(b.ep, "objmgr.rep", OpenReplyBytes,
			openRep{token: b.token, pairing: Pairing{Chan: id, Peer: a.ep}}, nil)
	}
	for len(q.any) >= 2 {
		a, b := q.any[0], q.any[1]
		q.any = q.any[2:]
		pair(a, b)
	}
	for len(q.serve) > 0 && len(q.connect) > 0 {
		s, c := q.serve[0], q.connect[0]
		q.serve = q.serve[1:]
		q.connect = q.connect[1:]
		pair(s, c)
	}
	if len(q.any) == 0 && len(q.serve) == 0 && len(q.connect) == 0 {
		delete(st.pending, name)
	}
}

// handleReply runs at interrupt level on the opener's node.
func (m *Manager) handleReply(msg *hpc.Message) {
	rep := msg.Payload.(netif.Envelope).Body.(openRep)
	fn, ok := m.replies[rep.token]
	if !ok {
		return
	}
	delete(m.replies, rep.token)
	fn(rep.pairing)
}
