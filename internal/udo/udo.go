// Package udo implements VORX user-defined communications objects
// (paper §4.1): a general interface that lets applications bypass the
// channel protocol entirely. Processes access the hardware registers
// from their applications — eliminating the overhead of supervisor
// calls into the kernel — and either specify interrupt service
// routines for incoming messages or disable communications interrupts
// and poll for input at convenient places in the program.
//
// On top of raw objects, the package provides the two protocol styles
// the paper shows outperforming channels:
//
//   - NoProtocol: no flow control at all, relying on the HPC's
//     hardware flow control plus application-level synchronization —
//     the parallel-SPICE configuration that reached 60 µs software
//     latency for 64-byte messages, and the bitmap-streaming
//     configuration that reached 3.2 Mbyte/s.
//   - Sliding window (reader-active): the benchmarked protocol of
//     Table 1, with k initial buffer-available credits and one credit
//     returned per message received.
//
// User-defined objects rendezvous through the same object manager as
// channels, so both coexist (paper: "User-defined communications
// objects are integrated with the object manager").
package udo

import (
	"fmt"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Msg is a message received through a user-defined object.
type Msg struct {
	Size    int
	Payload any
}

// RawHeader is the minimal framing raw objects put on the wire.
const RawHeader = 4

// PollCheck is the user-level cost of one test-for-input when
// interrupts are disabled.
const PollCheck = 10 * sim.Microsecond

// PolledDepth bounds how many undelivered messages a polled object
// absorbs before hardware backpressure reaches the sender.
const PolledDepth = 8

// Object is one endpoint of a user-defined communications object.
type Object struct {
	f      *netif.IF
	name   string
	polled bool

	queue   []Msg
	pending []*hpc.Delivery // polled mode: deliveries held for backpressure
	waiter  kern.Waker
	waiting bool
}

// New creates a user-defined object named name on node interface f.
// With polled=false incoming messages raise an interrupt service
// routine (entry + read cost); with polled=true interrupts are
// disabled and the application must call Recv to poll.
func New(f *netif.IF, name string, polled bool) *Object {
	o := &Object{f: f, name: name, polled: polled}
	costs := f.Node().Costs()
	svcName := "udo." + name
	if polled {
		f.Register(svcName, netif.Service{
			NoInterrupt: true,
			HandleRaw: func(d *hpc.Delivery) {
				if len(o.queue)+len(o.pending) < PolledDepth {
					o.accept(d.Msg)
					d.Release()
				} else {
					o.pending = append(o.pending, d)
				}
				if o.waiting {
					o.waiting = false
					o.waiter.Wake()
				}
			},
		})
		return o
	}
	f.Register(svcName, netif.Service{
		Cost: func(m *hpc.Message) sim.Duration {
			return costs.UDORecvISR + costs.CopyTime(m.Size-RawHeader)
		},
		Handle: func(m *hpc.Message) {
			o.accept(m)
			if o.waiting {
				o.waiting = false
				o.waiter.Wake()
			}
		},
	})
	return o
}

func (o *Object) accept(m *hpc.Message) {
	o.queue = append(o.queue, Msg{Size: m.Size - RawHeader, Payload: m.Payload})
}

// Send transmits size data bytes directly at the hardware: no system
// call, just the user-level setup cost plus the copy into the output
// section. It blocks only on hardware output backpressure.
func (o *Object) Send(sp *kern.Subprocess, dst topo.EndpointID, size int, payload any) error {
	costs := o.f.Node().Costs()
	sp.Compute(costs.UDOSend + costs.CopyTime(size))
	return o.f.Send(sp, dst, "udo."+o.name, size+RawHeader, payload)
}

// Recv returns the next message. In ISR mode it blocks until the ISR
// delivers one; in polled mode it spin-polls (interrupts stay off).
func (o *Object) Recv(sp *kern.Subprocess) Msg {
	costs := o.f.Node().Costs()
	if o.polled {
		for {
			sp.Compute(PollCheck)
			if len(o.queue) > 0 {
				m := o.popLocked()
				sp.Compute(costs.CopyTime(m.Size))
				return m
			}
			// Idle-wait for arrival without charging CPU (the real
			// code would spin; the result is the same in virtual
			// time because nothing else wants this CPU).
			o.waiter, o.waiting = sp.Block(kern.WaitInput), true
			sp.BlockNow("udo-poll ", o.name)
		}
	}
	if len(o.queue) > 0 {
		return o.popLocked()
	}
	o.waiter, o.waiting = sp.Block(kern.WaitInput), true
	sp.BlockNow("udo-recv ", o.name)
	sp.System(costs.SchedulerWake)
	if len(o.queue) == 0 {
		panic(fmt.Sprintf("udo: woken with empty queue on %q", o.name))
	}
	return o.popLocked()
}

func (o *Object) popLocked() Msg {
	m := o.queue[0]
	o.queue = o.queue[1:]
	if len(o.pending) > 0 {
		d := o.pending[0]
		o.pending = o.pending[1:]
		o.accept(d.Msg)
		d.Release()
	}
	return m
}

// Pending reports queued-but-unread messages.
func (o *Object) Pending() int { return len(o.queue) }

// Remote is a send-only handle to a user-defined object registered on
// another node: the local process writes at its own hardware
// registers, addressed to the remote object's service.
type Remote struct {
	f    *netif.IF
	name string
}

// NewRemote returns a sender handle on node interface f for the
// object registered elsewhere under name. Nothing is registered
// locally.
func NewRemote(f *netif.IF, name string) *Remote {
	return &Remote{f: f, name: name}
}

// Send transmits size data bytes to the remote object on dst with the
// same direct-access cost model as Object.Send.
func (r *Remote) Send(sp *kern.Subprocess, dst topo.EndpointID, size int, payload any) error {
	costs := r.f.Node().Costs()
	sp.Compute(costs.UDOSend + costs.CopyTime(size))
	return r.f.Send(sp, dst, "udo."+r.name, size+RawHeader, payload)
}
