package udo

import (
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Sliding-window (reader-active) protocol, exactly as benchmarked for
// Table 1 of the paper:
//
//	"The receiver initially sends k buffer-available messages to the
//	sender, where k is the maximum number of messages that fit in its
//	available buffer space, and thereafter sends one buffer-available
//	message each time a message is received. The sender keeps its own
//	count of the number of receiver buffers available... If the count
//	is greater than zero, the sender can send a message immediately,
//	otherwise it blocks until the count becomes greater than zero."
//
// Both halves are user-level code using interrupt-driven user-defined
// objects; the calibrated bookkeeping costs below reproduce the
// table's 414 µs (1 buffer) → ~165 µs (64 buffers) curve at 4 bytes.

// Calibrated user-level protocol costs (see DESIGN.md). In steady
// state the *sender* is the bottleneck stage (per-message send cost
// plus credit-ISR processing ≈ 164 µs at 4 bytes), so with enough
// buffers credits accumulate, the sender never stalls, and the
// per-message time converges to the Table 1 floor; with one buffer
// every message pays the full serialized round trip (414 µs).
const (
	// WindowSendBookkeeping is the sender's per-message window
	// accounting before touching the hardware.
	WindowSendBookkeeping = 84 * sim.Microsecond
	// WindowSendFormatPerByte is the sender's per-byte cost to build
	// the outgoing message in its transmit ring.
	WindowSendFormatPerByte = 53 * sim.Nanosecond
	// CreditISR is the sender-side user ISR cost to process one
	// buffer-available message (user-mode interrupt trampoline plus
	// counter update), beyond the fixed interrupt entry.
	CreditISR = 40 * sim.Microsecond
	// WindowDeliverISR is the receiver-side user ISR cost to file an
	// arrived message into the window buffer ring.
	WindowDeliverISR = 30 * sim.Microsecond
	// WindowReadBookkeeping is the receiver's per-message user-level
	// cost to take a message out of the ring.
	WindowReadBookkeeping = 74 * sim.Microsecond
	// CreditBytes is the wire size of a buffer-available message.
	CreditBytes = 8
)

// WindowSender is the sending half of the protocol.
type WindowSender struct {
	f       *netif.IF
	name    string
	dst     topo.EndpointID
	msgSize int

	credits int
	blocked kern.Waker
	waiting bool

	// Stalls counts the times the sender ran out of credits and
	// blocked.
	Stalls int
}

// NewWindowSender creates the sender half; name must match the
// receiver half on dst.
func NewWindowSender(f *netif.IF, name string, dst topo.EndpointID, msgSize int) *WindowSender {
	ws := &WindowSender{f: f, name: name, dst: dst, msgSize: msgSize}
	f.Register("udw.c."+name, netif.Service{
		Cost: func(*hpc.Message) sim.Duration { return CreditISR },
		Handle: func(*hpc.Message) {
			ws.credits++
			if ws.waiting {
				ws.waiting = false
				ws.blocked.Wake()
			}
		},
	})
	return ws
}

// Send transmits one fixed-size message, blocking while no receiver
// buffer is available.
func (ws *WindowSender) Send(sp *kern.Subprocess, payload any) {
	costs := ws.f.Node().Costs()
	for ws.credits == 0 {
		ws.Stalls++
		ws.blocked, ws.waiting = sp.Block(kern.WaitOutput), true
		sp.BlockNow("window-credit ", ws.name)
		sp.System(costs.SchedulerWake)
	}
	ws.credits--
	sp.Compute(WindowSendBookkeeping)
	sp.Compute(costs.UDOSend + costs.CopyTime(ws.msgSize) + sim.Duration(ws.msgSize)*WindowSendFormatPerByte)
	if err := ws.f.Send(sp, ws.dst, "udw.d."+ws.name, ws.msgSize+RawHeader, payload); err != nil {
		panic(err)
	}
}

// Credits returns the sender's current credit count.
func (ws *WindowSender) Credits() int { return ws.credits }

// WindowReceiver is the receiving half.
type WindowReceiver struct {
	f       *netif.IF
	name    string
	src     topo.EndpointID
	buffers int

	ring    []Msg
	waiting bool
	waiter  kern.Waker

	// Received counts messages consumed by Recv.
	Received int
}

// NewWindowReceiver creates the receiver half with k message buffers.
func NewWindowReceiver(f *netif.IF, name string, src topo.EndpointID, msgSize, k int) *WindowReceiver {
	wr := &WindowReceiver{f: f, name: name, src: src, buffers: k}
	costs := f.Node().Costs()
	f.Register("udw.d."+name, netif.Service{
		Cost: func(m *hpc.Message) sim.Duration {
			return costs.UDORecvISR + costs.CopyTime(msgSize) + WindowDeliverISR
		},
		Handle: func(m *hpc.Message) {
			wr.ring = append(wr.ring, Msg{Size: msgSize, Payload: m.Payload})
			if wr.waiting {
				wr.waiting = false
				wr.waiter.Wake()
			}
		},
	})
	return wr
}

// Start issues the k initial buffer-available messages.
func (wr *WindowReceiver) Start(sp *kern.Subprocess) {
	costs := wr.f.Node().Costs()
	for i := 0; i < wr.buffers; i++ {
		sp.Compute(costs.UDOSend + costs.CopyTime(CreditBytes))
		if err := wr.f.Send(sp, wr.src, "udw.c."+wr.name, CreditBytes+RawHeader, nil); err != nil {
			panic(err)
		}
	}
}

// Recv consumes the next message: user-level bookkeeping, a per-byte
// examination of the data, and one buffer-available message back to
// the sender.
func (wr *WindowReceiver) Recv(sp *kern.Subprocess) Msg {
	costs := wr.f.Node().Costs()
	if len(wr.ring) == 0 {
		wr.waiter, wr.waiting = sp.Block(kern.WaitInput), true
		sp.BlockNow("window-data ", wr.name)
		sp.System(costs.SchedulerWake)
	}
	m := wr.ring[0]
	wr.ring = wr.ring[1:]
	sp.Compute(WindowReadBookkeeping)
	sp.Compute(costs.UDOSend + costs.CopyTime(CreditBytes))
	if err := wr.f.Send(sp, wr.src, "udw.c."+wr.name, CreditBytes+RawHeader, nil); err != nil {
		panic(err)
	}
	wr.Received++
	return m
}
