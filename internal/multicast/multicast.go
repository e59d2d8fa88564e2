// Package multicast implements the flow-controlled multicast primitive
// that is integrated with channels (paper §4.2, citing Katseff 1987):
// one writer sends the identical message to a group of receivers. The
// HPC hardware replicates the message at the sender's cluster, so the
// sender's output section and up-link are charged once; flow control
// is stop-and-wait across the whole group — the write completes when
// every member's kernel has acknowledged.
//
// Group membership uses the same rendezvous mechanism as channels:
// receivers Join the group name through the object manager; the sender
// collects one pairing per member.
//
// The paper's finding — reproduced by experiment E5 — is that
// multicast is usually *inappropriate*: as the number of processors
// grows, each receiver spends more and more time reading data it does
// not need, and a per-receiver message containing only the needed data
// wins.
package multicast

import (
	"fmt"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Wire overheads (shared with the channel protocol's flavor).
const (
	headerBytes = 32
	ackBytes    = 48
	maxFragment = 1024
)

// Msg is a message received from a multicast group.
type Msg struct {
	Size    int
	Payload any
}

type mcFrag struct {
	size  int
	total int
	last  bool
	pay   any
}

// Sender is the writing end of a multicast group.
type Sender struct {
	f       *netif.IF
	mgr     *objmgr.Manager
	name    string
	members []topo.EndpointID

	waitingAcks int
	writerWake  kern.Waker
}

// NewSender creates the group's writing end on node interface f. Call
// Accept once per expected member before writing.
func NewSender(f *netif.IF, mgr *objmgr.Manager, name string) *Sender {
	s := &Sender{f: f, mgr: mgr, name: name}
	f.Register("mc.ack."+name, netif.Service{
		Cost: func(*hpc.Message) sim.Duration { return f.Node().Costs().ChanAckProto },
		Handle: func(m *hpc.Message) {
			s.waitingAcks--
			if s.waitingAcks == 0 && s.writerWake.Armed() {
				w := s.writerWake
				s.writerWake = kern.Waker{}
				w.Wake()
			}
		},
	})
	return s
}

// Accept admits one member: it blocks until a receiver Joins the group
// name. Returns the member's endpoint.
func (s *Sender) Accept(sp *kern.Subprocess) topo.EndpointID {
	p := s.mgr.Open(sp, s.f, s.name, objmgr.Serve)
	s.members = append(s.members, p.Peer)
	return p.Peer
}

// Write multicasts size bytes to every member and blocks until all
// their kernels acknowledge (group-wide stop-and-wait flow control).
func (s *Sender) Write(sp *kern.Subprocess, size int, payload any) error {
	if len(s.members) == 0 {
		return fmt.Errorf("multicast: group %q has no members", s.name)
	}
	if size <= 0 {
		return fmt.Errorf("multicast: write of %d bytes", size)
	}
	costs := s.f.Node().Costs()
	sp.Syscall(costs.ChanSendProto + costs.KernelCopyTime(size))
	s.waitingAcks = len(s.members)
	s.writerWake = sp.Block(kern.WaitOutput)
	for off := 0; off < size; off += maxFragment {
		n := size - off
		if n > maxFragment {
			n = maxFragment
		}
		frag := mcFrag{size: n, total: size, last: off+n >= size}
		if frag.last {
			frag.pay = payload
		}
		err := s.f.Interconnect().SendMulticast(sp.Proc(), s.f.Endpoint(), s.members,
			n+headerBytes, frag, "mc."+s.name, nil)
		if err != nil {
			return err
		}
	}
	sp.BlockNow("mc-write ", s.name)
	sp.System(costs.SchedulerWake)
	return nil
}

// Receiver is one member's reading end.
type Receiver struct {
	f    *netif.IF
	name string
	peer topo.EndpointID

	ready      []Msg
	reader     kern.Waker
	waiting    bool
	pendingMsg Msg

	// BytesRead counts all payload bytes this member's kernel read
	// off the wire — including data the application did not need,
	// which is the cost §4.2 warns about.
	BytesRead int64
}

// Join creates the member end and rendezvouses with the group sender.
func Join(f *netif.IF, mgr *objmgr.Manager, sp *kern.Subprocess, name string) *Receiver {
	r := &Receiver{f: f, name: name}
	costs := f.Node().Costs()
	f.Register("mc."+name, netif.Service{
		Cost: func(m *hpc.Message) sim.Duration {
			frag := m.Payload.(mcFrag)
			return costs.ChanRecvProto + costs.KernelCopyTime(frag.size)
		},
		Handle: func(m *hpc.Message) { r.handle(m) },
	})
	p := mgr.Open(sp, f, name, objmgr.Connect)
	r.peer = p.Peer
	return r
}

func (r *Receiver) handle(m *hpc.Message) {
	frag := m.Payload.(mcFrag)
	r.BytesRead += int64(frag.size)
	if !frag.last {
		return
	}
	msg := Msg{Size: frag.total, Payload: frag.pay}
	// Acknowledge: this member's kernel has the whole write.
	r.f.SendAsync(r.peer, "mc.ack."+r.name, ackBytes, nil, nil)
	if r.waiting {
		r.waiting = false
		r.pendingMsg = msg
		r.reader.Wake()
		return
	}
	r.ready = append(r.ready, msg)
}

// Read blocks until the next multicast write arrives and returns it.
func (r *Receiver) Read(sp *kern.Subprocess) Msg {
	costs := r.f.Node().Costs()
	sp.Syscall(0)
	if len(r.ready) > 0 {
		m := r.ready[0]
		r.ready = r.ready[1:]
		sp.System(costs.KernelCopyTime(m.Size))
		return m
	}
	r.reader, r.waiting = sp.Block(kern.WaitInput), true
	sp.BlockNow("mc-read ", r.name)
	sp.System(costs.SchedulerWake)
	return r.pendingMsg
}
