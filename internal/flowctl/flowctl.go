// Package flowctl implements the sender recovery strategies that
// paper §2 evaluates for S/NET FIFO overflow:
//
//   - SpinRetry: continuously resend until accepted — the original
//     Meglos plan. Under many-to-one traffic with long messages it
//     livelocks: every retry deposits a junk fragment the receiver
//     must read and discard, so room for a whole message never opens.
//   - RandomBackoff: Ethernet-style randomized waiting. It breaks the
//     livelock but "communications runs at the timeout rate; at least
//     an order of magnitude slower".
//   - Reservation: a request/grant protocol that authorizes one sender
//     at a time. It eliminates overflow but adds software and bus
//     overhead to *every* message — the reason the paper rejected it.
//
// The HPC needs none of these: its hardware flow control refuses a
// message until buffer room exists (see package hpc).
package flowctl

import (
	"fmt"

	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
)

// Strategy reliably delivers messages over an S/NET, recovering from
// FIFO overflow in its own way.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Send blocks p until the message has been accepted by dst's
	// FIFO, and returns the number of bus transfers used (1 = no
	// retries; reservation counts its control messages).
	Send(p *sim.Proc, src *snet.Station, dst, size int, payload any) int
}

// SpinRetry resends immediately on every fifo-full signal. It retries
// forever: a livelocked run ends at its horizon.
type SpinRetry struct{}

// spinTurnaround is the kernel cost to field the fifo-full signal and
// reissue the transfer.
const spinTurnaround = 30 * sim.Microsecond

// Name implements Strategy.
func (s *SpinRetry) Name() string { return "spin-retry" }

// Send implements Strategy.
func (s *SpinRetry) Send(p *sim.Proc, src *snet.Station, dst, size int, payload any) int {
	attempts := 0
	for {
		attempts++
		if src.Send(p, dst, size, payload) == snet.Delivered {
			return attempts
		}
		p.Sleep(spinTurnaround)
	}
}

// RandomBackoff waits a uniformly random interval in (0, Max] after
// each rejection before retrying.
type RandomBackoff struct {
	// Max is the maximum backoff. The paper's observation is that
	// throughput degenerates to the timeout rate, so Max directly
	// sets the many-to-one bandwidth.
	Max sim.Duration
}

// Name implements Strategy.
func (b *RandomBackoff) Name() string { return "random-backoff" }

// Send implements Strategy.
func (b *RandomBackoff) Send(p *sim.Proc, src *snet.Station, dst, size int, payload any) int {
	attempts := 0
	for {
		attempts++
		if src.Send(p, dst, size, payload) == snet.Delivered {
			return attempts
		}
		max := int64(b.Max)
		if max <= 0 {
			max = int64(sim.Millisecond)
		}
		p.Sleep(sim.Duration(1 + p.Kernel().Rand().Int63n(max)))
	}
}

// Control message sizes for the reservation protocol.
const (
	rtsBytes = 16
	ctsBytes = 8
)

type rtsMsg struct{ src int }
type ctsMsg struct{}
type dataMsg struct {
	payload any
	user    func(m snet.Message)
}

// Reservation runs a request-to-send / clear-to-send protocol over the
// S/NET. One Reservation instance owns the whole network: it installs
// a demultiplexing deliver handler and a grant-manager process on
// every station. Construct it before spawning application processes.
type Reservation struct {
	// per-station state
	reqs    []*sim.Queue[int] // pending RTS sources at each receiver
	grants  []*sim.Cond       // receiver manager wakes when data arrives
	cts     []*sim.Cond       // sender wakes when its CTS arrives
	userFns []func(m snet.Message)
}

// NewReservation wires the protocol onto every station of nw and
// starts the per-station grant managers and drain kernels.
func NewReservation(k *sim.Kernel, nw *snet.Network) *Reservation {
	n := nw.Stations()
	r := &Reservation{
		reqs:    make([]*sim.Queue[int], n),
		grants:  make([]*sim.Cond, n),
		cts:     make([]*sim.Cond, n),
		userFns: make([]func(m snet.Message), n),
	}
	for i := 0; i < n; i++ {
		i := i
		r.reqs[i] = sim.NewQueue[int](fmt.Sprintf("rsv-req%d", i))
		r.grants[i] = sim.NewCond(fmt.Sprintf("rsv-grant%d", i))
		r.cts[i] = sim.NewCond(fmt.Sprintf("rsv-cts%d", i))
		st := nw.Station(i)
		st.SetDeliver(func(m snet.Message) {
			switch c := m.Payload.(type) {
			case rtsMsg:
				r.reqs[i].Put(c.src)
			case ctsMsg:
				r.cts[i].Signal()
			case dataMsg:
				if c.user != nil {
					c.user(snet.Message{Src: m.Src, Size: m.Size, Payload: c.payload})
				}
				r.grants[i].Signal()
			}
		})
		st.StartKernel()
		mgr := k.Spawn(fmt.Sprintf("rsv-mgr%d", i), func(p *sim.Proc) {
			for {
				src := r.reqs[i].Get(p)
				// Authorize exactly one sender at a time.
				for st.Send(p, src, ctsBytes, ctsMsg{}) != snet.Delivered {
					p.Sleep(10 * sim.Microsecond)
				}
				r.grants[i].Wait(p) // until the data message lands
			}
		})
		mgr.SetDaemon(true)
	}
	return r
}

// SetDeliver installs the user-level receive callback for station i.
func (r *Reservation) SetDeliver(i int, fn func(m snet.Message)) {
	r.userFns[i] = fn
}

// Name implements Strategy.
func (r *Reservation) Name() string { return "reservation" }

// Send implements Strategy: RTS, wait for CTS, then send the data.
func (r *Reservation) Send(p *sim.Proc, src *snet.Station, dst, size int, payload any) int {
	transfers := 0
	// The RTS itself is small; the protocol invariant (FIFO holds one
	// data message plus an RTS from every processor) means it always
	// fits, but retry defensively.
	for {
		transfers++
		if src.Send(p, dst, rtsBytes, rtsMsg{src: src.ID()}) == snet.Delivered {
			break
		}
		p.Sleep(10 * sim.Microsecond)
	}
	r.cts[src.ID()].Wait(p)
	for {
		transfers++
		if src.Send(p, dst, size, dataMsg{payload: payload, user: r.userFns[dst]}) == snet.Delivered {
			return transfers
		}
		// Cannot happen when the invariant holds; be safe anyway.
		p.Sleep(10 * sim.Microsecond)
	}
}
