// Package linda is a distributed tuple space in the style of the
// S/Net's Linda kernel (Carriero & Gelernter 1986), which the paper
// cites as the canonical user that needed to bypass the channel
// protocol: "the implementors of Linda needed a different type of
// semantics: multicast with no explicit flow control" (§4.1).
//
// This implementation runs on VORX user-defined communications
// objects: tuples are hashed by their name (first element) to an
// owning node, whose kernel-level tuple manager stores them and
// matches in/rd requests at interrupt level — no per-message software
// flow control, exactly the access pattern user-defined objects exist
// for. The HPC's hardware flow control keeps it safe anyway.
//
// Operations are the classic three: Out places a tuple, In withdraws
// a matching tuple (blocking until one exists), Rd reads one without
// withdrawing it. Patterns match by position; Any is the wildcard.
package linda

import (
	"fmt"
	"hash/fnv"
	"reflect"

	"hpcvorx/internal/core"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Any is the pattern wildcard.
var Any = anyT{}

type anyT struct{}

func (anyT) String() string { return "?" }

// Tuple is an ordered sequence of values whose first element is a
// string name.
type Tuple []any

// Name returns the tuple's name.
func (t Tuple) Name() (string, error) {
	if len(t) == 0 {
		return "", fmt.Errorf("linda: empty tuple")
	}
	s, ok := t[0].(string)
	if !ok {
		return "", fmt.Errorf("linda: tuple name must be a string, got %T", t[0])
	}
	return s, nil
}

// Matches reports whether the tuple matches the pattern: equal
// length, and each pattern element either Any or equal.
func (t Tuple) Matches(pattern Tuple) bool {
	if len(t) != len(pattern) {
		return false
	}
	for i, p := range pattern {
		if _, wild := p.(anyT); wild {
			continue
		}
		if !reflect.DeepEqual(t[i], p) {
			return false
		}
	}
	return true
}

// WireBytes estimates the tuple's size on the wire.
func (t Tuple) WireBytes() int {
	n := 16
	for _, e := range t {
		switch v := e.(type) {
		case string:
			n += len(v) + 4
		default:
			n += 8
		}
	}
	return n
}

// Kernel-level manager costs.
const (
	// MatchFixed is the manager's fixed cost to process one
	// operation at interrupt level.
	MatchFixed = 22 * sim.Microsecond
	// MatchPerTuple is the scan cost per stored tuple examined.
	MatchPerTuple = 2 * sim.Microsecond
	// ReplyISR is the requester's interrupt-level cost to absorb one
	// reply.
	ReplyISR = 10 * sim.Microsecond
)

// wire messages
type outMsg struct{ tuple Tuple }
type reqMsg struct {
	pattern Tuple
	from    topo.EndpointID
	token   uint64
	take    bool
}
type repMsg struct {
	tuple Tuple
	token uint64
}

// Space is a distributed tuple space over a set of processing nodes.
type Space struct {
	nodes []*core.Machine
	uid   int

	store   []map[string][]Tuple // per manager node, by name
	waiters []map[string][]reqMsg
	replies map[uint64]*waiter
	tokens  uint64

	// Outs and Ins count completed operations.
	Outs, Ins int
}

type waiter struct {
	wake  kern.Waker
	tuple Tuple
}

// New builds a tuple space whose managers run on the given nodes.
func New(sys *core.System, nodes []*core.Machine) *Space {
	s := &Space{
		nodes: nodes, uid: sys.NextUID("linda"),
		store:   make([]map[string][]Tuple, len(nodes)),
		waiters: make([]map[string][]reqMsg, len(nodes)),
		replies: map[uint64]*waiter{},
	}
	for i, m := range nodes {
		i := i
		s.store[i] = map[string][]Tuple{}
		s.waiters[i] = map[string][]reqMsg{}
		m.IF.Register(s.svc(i), netif.Service{
			Cost: func(msg *hpc.Message) sim.Duration {
				// Scan cost depends on what is stored under the name.
				body := msg.Payload
				stored := 0
				switch b := body.(type) {
				case outMsg:
					if name, err := b.tuple.Name(); err == nil {
						stored = len(s.waiters[i][name])
					}
				case reqMsg:
					if name, err := b.pattern.Name(); err == nil {
						stored = len(s.store[i][name])
					}
				}
				return MatchFixed + sim.Duration(stored)*MatchPerTuple
			},
			Handle: func(msg *hpc.Message) { s.handle(i, msg) },
		})
	}
	// Reply service on every machine in the system (processes can
	// live anywhere).
	for _, m := range sys.Machines() {
		m.IF.Register(s.repSvc(), netif.Service{
			Cost:   func(*hpc.Message) sim.Duration { return ReplyISR },
			Handle: s.handleReply,
		})
	}
	return s
}

func (s *Space) svc(i int) string { return fmt.Sprintf("linda.%d.%d", s.uid, i) }
func (s *Space) repSvc() string   { return fmt.Sprintf("linda.rep.%d", s.uid) }

// ownerOf hashes a tuple name to its managing node index.
func (s *Space) ownerOf(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32()) % len(s.nodes)
}

// handle runs at interrupt level on the owning node.
func (s *Space) handle(i int, msg *hpc.Message) {
	switch b := msg.Payload.(type) {
	case outMsg:
		name, err := b.tuple.Name()
		if err != nil {
			return
		}
		// Serve the oldest waiting matching request first.
		ws := s.waiters[i][name]
		for wi, req := range ws {
			if b.tuple.Matches(req.pattern) {
				if req.take {
					s.waiters[i][name] = append(ws[:wi:wi], ws[wi+1:]...)
					s.reply(i, req, b.tuple)
					return
				}
				// rd: satisfy the reader and keep the tuple; also
				// satisfy every other pending rd that matches.
				s.waiters[i][name] = append(ws[:wi:wi], ws[wi+1:]...)
				s.reply(i, req, b.tuple)
				s.handle(i, msg) // re-run for remaining waiters/store
				return
			}
		}
		s.store[i][name] = append(s.store[i][name], b.tuple)
	case reqMsg:
		name, err := b.pattern.Name()
		if err != nil {
			return
		}
		tuples := s.store[i][name]
		for ti, tp := range tuples {
			if tp.Matches(b.pattern) {
				if b.take {
					s.store[i][name] = append(tuples[:ti:ti], tuples[ti+1:]...)
				}
				s.reply(i, b, tp)
				return
			}
		}
		s.waiters[i][name] = append(s.waiters[i][name], b)
	}
}

func (s *Space) reply(i int, req reqMsg, tp Tuple) {
	s.nodes[i].IF.SendAsync(req.from, s.repSvc(), tp.WireBytes()+16,
		repMsg{tuple: tp, token: req.token}, nil)
}

func (s *Space) handleReply(msg *hpc.Message) {
	rep := msg.Payload.(repMsg)
	w := s.replies[rep.token]
	if w == nil {
		return
	}
	delete(s.replies, rep.token)
	w.tuple = rep.tuple
	w.wake.Wake()
}

// Handle is a process's connection to the space.
type Handle struct {
	s *Space
	m *core.Machine
}

// HandleOn returns an operation handle for a process on machine m.
func (s *Space) HandleOn(m *core.Machine) *Handle {
	return &Handle{s: s, m: m}
}

// Out places a tuple into the space. Like the Linda the paper
// describes, there is no software flow control: the send goes
// straight at the hardware and returns.
func (h *Handle) Out(sp *kern.Subprocess, elems ...any) error {
	tp := Tuple(elems)
	name, err := tp.Name()
	if err != nil {
		return err
	}
	costs := h.m.Kern.Costs()
	sp.Compute(costs.UDOSend + costs.CopyTime(tp.WireBytes()))
	owner := h.s.ownerOf(name)
	h.s.Outs++
	return h.m.IF.Send(sp, h.s.nodes[owner].EP, h.s.svc(owner), tp.WireBytes(), outMsg{tuple: tp})
}

// In withdraws a tuple matching the pattern, blocking until one
// exists.
func (h *Handle) In(sp *kern.Subprocess, pattern ...any) (Tuple, error) {
	t, err := h.request(sp, Tuple(pattern), true)
	if err == nil {
		h.s.Ins++
	}
	return t, err
}

// Rd reads a tuple matching the pattern without withdrawing it,
// blocking until one exists.
func (h *Handle) Rd(sp *kern.Subprocess, pattern ...any) (Tuple, error) {
	return h.request(sp, Tuple(pattern), false)
}

func (h *Handle) request(sp *kern.Subprocess, pattern Tuple, take bool) (Tuple, error) {
	name, err := pattern.Name()
	if err != nil {
		return nil, err
	}
	costs := h.m.Kern.Costs()
	sp.Compute(costs.UDOSend + costs.CopyTime(pattern.WireBytes()))
	token := h.s.tokens
	h.s.tokens++
	w := &waiter{}
	w.wake = sp.Block(kern.WaitInput)
	h.s.replies[token] = w
	owner := h.s.ownerOf(name)
	req := reqMsg{pattern: pattern, from: h.m.EP, token: token, take: take}
	if err := h.m.IF.Send(sp, h.s.nodes[owner].EP, h.s.svc(owner), pattern.WireBytes()+16, req); err != nil {
		return nil, err
	}
	sp.BlockNow("linda ", name)
	sp.System(costs.SchedulerWake)
	return w.tuple, nil
}

// Stored returns the number of tuples currently stored under a name.
func (s *Space) Stored(name string) int {
	return len(s.store[s.ownerOf(name)][name])
}
