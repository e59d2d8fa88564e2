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
	"slices"

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

const (
	// ManagerProcess is the manager-side CPU cost to process one
	// open request (hash-table work plus reply generation).
	ManagerProcess = 45 * sim.Microsecond
	// OpenOverhead is the opener-side kernel cost beyond the bare
	// system call.
	OpenOverhead = 25 * sim.Microsecond
	// ReplyISR is the opener-side cost to absorb the reply.
	ReplyISR = 12 * sim.Microsecond
)

// Pairing is the result of a successful open.
type Pairing struct {
	Chan uint64 // channel id, unique across the system
	Peer topo.EndpointID
}

// Manager is the collective object-manager service of one simulation
// shard: the pending opens of the managers it serves, plus the
// client-side reply waits of every node on the shard.
type Manager struct {
	ifs    map[topo.EndpointID]*netif.IF
	mgrs   []topo.EndpointID
	states map[topo.EndpointID]*mgrState

	// pending holds the unmatched opens of every manager served here,
	// by name. ManagerFor sends each name to exactly one manager, so
	// names of different managers never collide in the one table.
	// freeQueues keeps emptied queues, storage and all, for reuse.
	pending    map[string]*nameQueue
	freeQueues []*nameQueue

	// waits holds each open's wait for its reply, at the index in its
	// token's low 32 bits; freeTokens lists the tokens of records whose
	// open has read its reply (see newToken).
	waits      []replyWait
	freeTokens []uint64

	// reqs and reps are the shard's spare wire bodies of the open
	// protocol. A body is sent as a pointer (boxing a pointer allocates
	// nothing); the receiver copies it out and puts the shell on its
	// own shard's list, so each list has one owner and needs no lock.
	// Opens whose manager sits on another shard move shells one way,
	// and the lists' cap leaves the surplus to the garbage collector.
	reqs netif.FreeList[openReq]
	reps netif.FreeList[openRep]
}

type mgrState struct {
	idSeq uint64
	idx   int
	// Processed counts opens handled by this manager (the E8 load
	// distribution measurement).
	Processed int
}

type nameQueue struct {
	any, serve, connect []pendingOpen
}

// replyWait is one open's wait for its reply.
type replyWait struct {
	tok     uint64     // the token of the open holding the record
	wake    kern.Waker // armed until the reply lands
	pairing Pairing    // the reply, once it has landed
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
		pending: make(map[string]*nameQueue),
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
		st := &mgrState{idx: i}
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
// returns the pairing. While failed links cut sp's node off from the
// name's manager, the open waits for a link to come back up and sends
// again.
func (m *Manager) Open(sp *kern.Subprocess, from *netif.IF, name string, mode Mode) Pairing {
	sp.Syscall(OpenOverhead)
	tok := m.newToken()
	for {
		m.waits[uint32(tok)] = replyWait{tok: tok, wake: sp.Block(kern.WaitOther)}
		req := m.reqs.Get()
		*req = openReq{name: name, mode: mode, from: from.Endpoint(), token: tok}
		if err := from.Send(sp, m.ManagerFor(name), "objmgr", OpenRequestBytes, req); err == nil {
			break
		}
		m.reqs.Put(req) // never entered the fabric
		// The manager is unreachable: give up the reply wait and send
		// again once a cube link comes back up.
		m.waits[uint32(tok)].wake.Wake()
		sp.BlockNow("open ", name)
		from.Interconnect().OnRepair(sp.Block(kern.WaitOther).Wake)
		sp.BlockNow("open ", name+" (manager unreachable)")
	}
	sp.BlockNow("open ", name)
	p := m.waits[uint32(tok)].pairing
	m.freeTokens = append(m.freeTokens, tok)
	return p
}

// newToken returns the token of a free reply record. A record is free
// again once its open has read the reply, and reusing it adds 1<<32 to
// the token, so a reply for an earlier holder matches nothing.
func (m *Manager) newToken() uint64 {
	if n := len(m.freeTokens); n > 0 {
		tok := m.freeTokens[n-1] + 1<<32
		m.freeTokens = m.freeTokens[:n-1]
		return tok
	}
	m.waits = append(m.waits, replyWait{})
	return uint64(len(m.waits) - 1)
}

// handleOpen runs at interrupt level on the manager node.
func (m *Manager) handleOpen(ep topo.EndpointID, st *mgrState, msg *hpc.Message) {
	rp := msg.Payload.(*openReq)
	req := *rp
	m.reqs.Put(rp)
	st.Processed++
	q := m.pending[req.name]
	if q == nil {
		if n := len(m.freeQueues); n > 0 {
			q, m.freeQueues = m.freeQueues[n-1], m.freeQueues[:n-1]
		} else {
			q = &nameQueue{}
		}
		m.pending[req.name] = q
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

// match pairs pending opens for one name and sends the replies. The
// queues shift down rather than re-slice, so an emptied queue keeps its
// storage for reuse.
func (m *Manager) match(ep topo.EndpointID, st *mgrState, name string, q *nameQueue) {
	f := m.ifs[ep]
	pair := func(a, b pendingOpen) {
		id := uint64(st.idx) | (st.idSeq+1)<<16
		st.idSeq++
		m.reply(f, a, Pairing{Chan: id, Peer: b.ep})
		m.reply(f, b, Pairing{Chan: id, Peer: a.ep})
	}
	for len(q.any) >= 2 {
		a, b := q.any[0], q.any[1]
		q.any = slices.Delete(q.any, 0, 2)
		pair(a, b)
	}
	for len(q.serve) > 0 && len(q.connect) > 0 {
		s, c := q.serve[0], q.connect[0]
		q.serve = slices.Delete(q.serve, 0, 1)
		q.connect = slices.Delete(q.connect, 0, 1)
		pair(s, c)
	}
	if len(q.any) == 0 && len(q.serve) == 0 && len(q.connect) == 0 {
		delete(m.pending, name)
		m.freeQueues = append(m.freeQueues, q)
	}
}

// reply sends one open its pairing.
func (m *Manager) reply(f *netif.IF, to pendingOpen, p Pairing) {
	rep := m.reps.Get()
	*rep = openRep{token: to.token, pairing: p}
	f.SendAsync(to.ep, "objmgr.rep", OpenReplyBytes, rep, nil)
}

// handleReply runs at interrupt level on the opener's node. A reply
// for a token that no longer waits (a duplicate, or one for a record
// since reused) wakes nothing.
func (m *Manager) handleReply(msg *hpc.Message) {
	rp := msg.Payload.(*openRep)
	rep := *rp
	m.reps.Put(rp)
	w := &m.waits[uint32(rep.token)]
	if w.tok != rep.token || !w.wake.Armed() {
		return
	}
	w.pairing = rep.pairing
	w.wake.Wake()
	w.wake = kern.Waker{}
}
