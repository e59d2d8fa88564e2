// Package netif is the VORX communications driver: it connects a
// node's kernel (package kern) to its HPC port (package hpc) and
// demultiplexes incoming messages to registered services — the channel
// protocol, the object manager, host stubs, and user-defined
// communications objects all receive their traffic through one
// interface.
//
// Each arriving message raises an interrupt on the node; the service's
// declared ISR cost (interrupt entry plus whatever reading the message
// out of the input section takes) is charged to the node's CPU before
// the handler body runs, and the hardware input section is released at
// that point — the VORX kernel "reads in messages immediately when
// they arrive" (paper §2), which is what keeps the fabric deadlock
// free.
package netif

import (
	"fmt"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/trace"
)

// Envelope is the payload wrapper that names the destination service.
type Envelope struct {
	Service string
	Body    any
}

// fenceService is the driver-internal service that distributes
// incarnation fences. A fence note names a target endpoint and the
// minimum acceptable incarnation; a machine receiving a note about
// *itself* has been declared dead by the supervisor and reboots under
// the floor, killing its zombie subprocesses.
const fenceService = "netif.fence"

// FenceNoteBytes is the wire size of a fence note.
const FenceNoteBytes = 16

// fenceISR is the interrupt-level cost of absorbing a fence note.
const fenceISR = 4 * sim.Microsecond

// selfFenceReboot is the cold-boot delay a self-fencing machine pays
// between crashing its zombie state and coming back under the floor.
const selfFenceReboot = 1 * sim.Millisecond

type fenceNote struct {
	Target topo.EndpointID
	Min    uint32
}

// Verifier observes frame-level accept/refuse decisions; the chaos
// harness's invariant checker implements it. Nil when unused — the
// hooks cost one predicate each.
type Verifier interface {
	// FrameAccepted fires for every frame handed to a registered
	// service on dst.
	FrameAccepted(dst, src topo.EndpointID, inc uint32, service string)
	// FrameRefused fires for every frame dropped by an incarnation
	// fence (the frame's inc was below the floor min for src).
	FrameRefused(dst, src topo.EndpointID, inc, min uint32, service string)
}

// Service handles one class of incoming messages.
type Service struct {
	// Cost returns the interrupt-level CPU time needed to accept the
	// message (excluding the fixed interrupt entry, which netif adds).
	// Ignored when NoInterrupt is set.
	Cost func(m *hpc.Message) sim.Duration
	// BatchCost, when non-nil, is the cost of absorbing the message as
	// a non-first member of a coalesced interrupt batch: the protocol
	// entry work is done once per batch, so riders pay only their
	// per-message copy. Nil falls back to Cost. Unused unless
	// coalescing is enabled.
	BatchCost func(m *hpc.Message) sim.Duration
	// Handle runs at interrupt level after Cost has elapsed. It must
	// not block; wake a subprocess for long work.
	Handle func(m *hpc.Message)
	// NoInterrupt delivers without raising a CPU interrupt: the
	// message is handed to HandleRaw (with its hardware Delivery, so
	// the handler controls when the input section frees) and costs
	// nothing — the receiving program polls for it (paper §5:
	// "communications interrupts are disabled and user-defined
	// objects are used to test for input at convenient places").
	NoInterrupt bool
	// HandleRaw is used instead of Handle when NoInterrupt is set.
	HandleRaw func(d *hpc.Delivery)
}

// IF is one node's network interface.
type IF struct {
	node     *kern.Node
	ic       *hpc.Interconnect
	ep       topo.EndpointID
	services map[string]Service
	trace    *MsgTrace

	// pending holds deliveries accepted from the fabric but not yet
	// released (their interrupt has not run). Released en masse if the
	// node crashes, so a dead node never wedges the interconnect.
	pending []*hpc.Delivery

	// Receive-interrupt coalescing (the pipelined profile): deliveries
	// landing at the same virtual instant — or within coalesceHorizon of
	// the first — are drained by one interrupt, charged a single
	// interrupt-entry cost plus every message's per-copy cost. The
	// batch state is made by the first coalesced delivery.
	coalesce        bool
	coalesceHorizon sim.Duration
	co              *coalescer

	// CoalescedIntr counts deliveries that rode an already-armed batch
	// interrupt instead of raising their own.
	CoalescedIntr int

	// Dropped counts messages that arrived for an unregistered
	// service (a programming error in the simulated application).
	Dropped int
	// DroppedDead counts messages drained because this node was
	// crashed — the hardware input section auto-frees, the software
	// never sees them.
	DroppedDead int
	// AsyncDropped counts asynchronous sends abandoned because link
	// failures made the destination unreachable.
	AsyncDropped int

	// Incarnation fencing (PR 6). fences maps a source endpoint to the
	// minimum incarnation this interface still accepts from it; frames
	// stamped below the floor are refused before any service sees them
	// and the sender is told to reboot.
	fences map[topo.EndpointID]uint32
	// FencedDrops counts frames refused by an incarnation fence.
	FencedDrops int
	// SelfFences counts reboots forced by a fence note naming this
	// machine.
	SelfFences int

	// Gray degradation (PR 6): a flaky-but-alive receiver. graySlow
	// multiplies every ISR service cost; grayDrop, when non-nil, is
	// consulted per arriving frame and true means the frame vanishes
	// as if the NIC lost it.
	graySlow float64
	grayDrop func(m *hpc.Message) bool
	// GrayDropped counts frames lost to gray degradation.
	GrayDropped int

	verifier Verifier

	// isrFree is a free list of receive-interrupt records (see isr);
	// the first delivery makes the first one.
	isrFree *isr
}

// isr is one raised receive interrupt: the delivery it reads out and
// the handler of the service it belongs to. Records are recycled per
// interface and fire is bound once, so raising the interrupt allocates
// nothing.
type isr struct {
	f      *IF
	d      *hpc.Delivery
	msg    *hpc.Message
	handle func(*hpc.Message)
	fire   func() // r.run, bound once
	next   *isr   // free-list link
}

// newISR takes an interrupt record from the free list, or makes one.
func (f *IF) newISR(d *hpc.Delivery, handle func(*hpc.Message)) *isr {
	r := f.isrFree
	if r != nil {
		f.isrFree, r.next = r.next, nil
	} else {
		r = &isr{f: f}
		r.fire = r.run
	}
	r.d, r.msg, r.handle = d, d.Msg, handle
	return r
}

// run is the interrupt body once its service cost has elapsed. The
// record goes back on the free list before the handler runs.
func (r *isr) run() {
	f, d, msg, handle := r.f, r.d, r.msg, r.handle
	r.d, r.msg, r.handle = nil, nil, nil
	r.next, f.isrFree = f.isrFree, r
	f.unpend(d)
	d.Release() // message has been read out of the input section
	handle(msg)
	// Handlers copy what they need out of the message before
	// returning (they model the ISR's read-out), so an arena-born
	// shell can go back for reuse here.
	f.ic.FreeMessage(msg)
}

// coalescer is an interface's receive-interrupt batch state.
type coalescer struct {
	batch   []batchEntry // read out, awaiting the next drain
	armed   bool         // the horizon timer will fire the batch
	pending bool         // a drain interrupt is queued or running
	timer   sim.Timer
	fire    func()      // f.fireBatch, bound once
	free    *batchDrain // free list of drain records
}

// batchDrain is one raised batch interrupt and the entries it drains.
// Like isr records, drains are recycled per interface with fire bound
// once, and each queued interrupt owns its record until it runs; a
// record keeps its entries' storage for the batch after next.
type batchDrain struct {
	f       *IF
	entries []batchEntry
	fire    func() // r.run, bound once
	next    *batchDrain
}

// run handles the drained messages in arrival order.
func (r *batchDrain) run() {
	f, co, entries := r.f, r.f.co, r.entries
	for _, e := range entries {
		e.svc.Handle(e.msg)
		f.ic.FreeMessage(e.msg)
	}
	clear(entries)
	r.entries = entries[:0]
	r.next, co.free = co.free, r
	co.pending = false
	// Arrivals that landed while this drain was queued or running
	// chain straight into the next one, like an ISR re-scanning the
	// ring before returning.
	if len(co.batch) > 0 {
		f.fireBatch()
	}
}

// Attach wires node to endpoint ep of ic and returns the interface.
func Attach(node *kern.Node, ic *hpc.Interconnect, ep topo.EndpointID) *IF {
	f := &IF{node: node, ic: ic, ep: ep, services: make(map[string]Service)}
	node.OnCrash(func() {
		// The crash discarded the queued ISRs (kern nils the interrupt
		// queue), so this is the last reference to these messages.
		for _, d := range f.pending {
			f.DroppedDead++
			msg := d.Msg
			d.Release()
			ic.FreeMessage(msg)
		}
		f.pending = nil
		// Batched messages were already read out of the hardware; the
		// crash discards them before their drain interrupt ran.
		if co := f.co; co != nil {
			for _, e := range co.batch {
				f.DroppedDead++
				ic.FreeMessage(e.msg)
			}
			clear(co.batch)
			co.batch = co.batch[:0]
			co.armed = false
			co.pending = false
			co.timer.Stop()
		}
	})
	f.services[fenceService] = Service{
		Cost:   func(*hpc.Message) sim.Duration { return fenceISR },
		Handle: f.handleFenceNote,
	}
	ic.SetDeliver(ep, func(d *hpc.Delivery) {
		if node.Crashed() {
			f.DroppedDead++
			msg := d.Msg
			d.Release()
			ic.FreeMessage(msg)
			return
		}
		if f.grayDrop != nil && f.grayDrop(d.Msg) {
			f.GrayDropped++
			msg := d.Msg
			d.Release()
			ic.FreeMessage(msg)
			return
		}
		if len(f.fences) > 0 {
			if min := f.fences[d.Msg.Src]; min > 0 && d.Msg.Inc < min {
				f.refuse(d, min)
				return
			}
		}
		env, ok := d.Msg.Payload.(Envelope)
		if !ok {
			f.Dropped++
			d.Release()
			return
		}
		if f.trace != nil {
			f.trace.record(TraceRecord{
				At: f.node.Kernel().Now(), Src: d.Msg.Src, Dst: d.Msg.Dst,
				Service: env.Service, Size: d.Msg.Size,
			})
		}
		svc, ok := f.services[env.Service]
		if !ok {
			f.Dropped++
			msg := d.Msg
			d.Release()
			ic.FreeMessage(msg)
			return
		}
		if v := f.verifier; v != nil {
			v.FrameAccepted(f.ep, d.Msg.Src, d.Msg.Inc, env.Service)
		}
		if tr := node.Tracer(); tr.Enabled() {
			tr.Emit(trace.KService, d.Msg.Trace, node.Name(), "svc/"+env.Service,
				fmt.Sprintf("%dB from %d", d.Msg.Size, d.Msg.Src))
		}
		if svc.NoInterrupt {
			// Raw deliveries hand the Delivery to the service, which
			// owns releasing it; they are not crash-tracked.
			svc.HandleRaw(d)
			return
		}
		msg := d.Msg
		if f.coalesce {
			// The driver reads the message out of the input section
			// immediately (freeing the hardware so the next fragment of
			// a train can land) and queues it for one batch interrupt.
			// While a drain is already queued or running the arrival
			// simply joins the accumulating batch — the drain chains
			// into it when it finishes, with no horizon wait.
			d.Release()
			co := f.co
			if co == nil {
				co = &coalescer{fire: f.fireBatch}
				f.co = co
			}
			co.batch = append(co.batch, batchEntry{msg: msg, svc: svc})
			if tr := node.Tracer(); tr.Enabled() {
				tr.GaugeSet("netif.batch."+node.Name(), float64(len(co.batch)))
			}
			if !co.armed && !co.pending {
				co.armed = true
				co.timer = node.Kernel().After(f.coalesceHorizon, co.fire)
			}
			return
		}
		f.pending = append(f.pending, d)
		if tr := node.Tracer(); tr.Enabled() {
			tr.GaugeSet("netif.pending."+node.Name(), float64(len(f.pending)))
		}
		node.Interrupt(f.isrCost(svc.Cost(msg)), f.newISR(d, svc.Handle).fire)
	})
	return f
}

// batchEntry is one read-out message awaiting a coalesced drain.
type batchEntry struct {
	msg *hpc.Message
	svc Service
}

// SetCoalesce enables receive-interrupt coalescing: deliveries that
// land while a batch interrupt is armed join it instead of raising
// their own. horizon is how long the first delivery of a batch waits
// for company; 0 coalesces only back-to-back deliveries at the same
// virtual instant. The batch is charged one interrupt entry plus each
// message's per-copy service cost, and messages are handled in arrival
// order — FIFO is preserved.
func (f *IF) SetCoalesce(horizon sim.Duration) {
	f.coalesce = true
	f.coalesceHorizon = horizon
}

// fireBatch raises the single interrupt that drains the armed batch.
func (f *IF) fireBatch() {
	co := f.co
	co.armed = false
	entries := co.batch
	if tr := f.node.Tracer(); tr.Enabled() && len(entries) > 0 {
		tr.GaugeSet("netif.batch."+f.node.Name(), 0)
	}
	if len(entries) == 0 || f.node.Crashed() {
		clear(entries)
		co.batch = entries[:0]
		return
	}
	if n := len(entries) - 1; n > 0 {
		f.CoalescedIntr += n
		f.node.Tracer().Count("netif.intr.coalesced", float64(n))
	}
	// First message pays the full ISR service cost (the protocol entry
	// work runs once per batch); riders pay only their per-message copy.
	cost := entries[0].svc.Cost(entries[0].msg)
	for _, e := range entries[1:] {
		if e.svc.BatchCost != nil {
			cost += e.svc.BatchCost(e.msg)
		} else {
			cost += e.svc.Cost(e.msg)
		}
	}
	r := co.free
	if r != nil {
		co.free, r.next = r.next, nil
	} else {
		r = &batchDrain{f: f}
		r.fire = r.run
	}
	// The drain takes the batch; the next batch reuses the storage the
	// record's previous drain left behind.
	r.entries, co.batch = entries, r.entries[:0]
	co.pending = true
	f.node.Interrupt(f.isrCost(cost), r.fire)
}

// isrCost scales an ISR cost by the gray slow-down factor (identity
// when the node is not gray).
func (f *IF) isrCost(d sim.Duration) sim.Duration {
	if f.graySlow > 1 {
		return sim.Duration(float64(d) * f.graySlow)
	}
	return d
}

// SetGray makes the receive side flaky: slow (> 1) multiplies every
// ISR service cost, and drop — when non-nil — is consulted per
// arriving frame; true loses the frame silently. SetGray(0, nil)
// restores a healthy interface. The fault engine drives this with a
// seeded per-node generator so gray runs stay deterministic.
func (f *IF) SetGray(slow float64, drop func(m *hpc.Message) bool) {
	f.graySlow = slow
	f.grayDrop = drop
}

// Gray reports whether the interface is currently degraded.
func (f *IF) Gray() bool { return f.graySlow > 1 || f.grayDrop != nil }

// SetVerifier installs the invariant checker's frame observer (nil to
// remove).
func (f *IF) SetVerifier(v Verifier) { f.verifier = v }

// Fence refuses future frames from src stamped with an incarnation
// below min. Raising an existing floor is allowed; lowering is a no-op
// (fences only tighten).
func (f *IF) Fence(src topo.EndpointID, min uint32) {
	if f.fences == nil {
		f.fences = make(map[topo.EndpointID]uint32)
	}
	if f.fences[src] < min {
		f.fences[src] = min
	}
}

// FenceFloor returns the minimum incarnation accepted from src (0 when
// unfenced).
func (f *IF) FenceFloor(src topo.EndpointID) uint32 { return f.fences[src] }

// SendFenceNote ships a fence note to the machine at dst: "refuse
// frames from target stamped below min" — or, when dst is target
// itself, "you are fenced; reboot". The supervisor broadcasts these
// when it confirms a death with fencing enabled.
func (f *IF) SendFenceNote(dst, target topo.EndpointID, min uint32) {
	f.SendAsync(dst, fenceService, FenceNoteBytes, fenceNote{Target: target, Min: min}, nil)
}

// refuse drops a fenced frame and tells the stale sender to reboot.
func (f *IF) refuse(d *hpc.Delivery, min uint32) {
	msg := d.Msg
	f.FencedDrops++
	svcName := ""
	if env, ok := msg.Payload.(Envelope); ok {
		svcName = env.Service
	}
	if tr := f.node.Tracer(); tr.Enabled() {
		tr.Emit(trace.KFence, msg.Trace, f.node.Name(), "svc/"+fenceService,
			fmt.Sprintf("refused %s inc %d < %d from %d", svcName, msg.Inc, min, msg.Src))
	}
	if v := f.verifier; v != nil {
		v.FrameRefused(f.ep, msg.Src, msg.Inc, min, svcName)
	}
	src := msg.Src
	d.Release()
	f.ic.FreeMessage(msg)
	// Answer every refused frame with a note (like a RST): the zombie
	// may be unreachable when the fence is installed, so the note that
	// finally lands is the one riding its first post-heal retransmit.
	f.SendAsync(src, fenceService, FenceNoteBytes, fenceNote{Target: src, Min: min}, nil)
}

// handleFenceNote processes a fence note: notes about other machines
// install the floor locally (supervisor broadcast); a note naming this
// machine means the cluster has moved on without it — crash the zombie
// state and cold-boot under the floor.
func (f *IF) handleFenceNote(m *hpc.Message) {
	note, ok := m.Payload.(Envelope).Body.(fenceNote)
	if !ok {
		return
	}
	if note.Target != f.ep {
		f.Fence(note.Target, note.Min)
		return
	}
	if note.Min <= f.node.Incarnation() {
		return // already rebooted past the floor
	}
	f.SelfFences++
	if tr := f.node.Tracer(); tr.Enabled() {
		tr.Emit(trace.KFence, 0, f.node.Name(), "cpu",
			fmt.Sprintf("self-fence: reboot to inc >= %d", note.Min))
	}
	min := note.Min
	f.node.Crash()
	f.node.Kernel().After(selfFenceReboot, func() { f.node.RestartAt(min) })
}

// unpend forgets a delivery that has been read out of the hardware.
func (f *IF) unpend(d *hpc.Delivery) {
	for i, p := range f.pending {
		if p == d {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			if tr := f.node.Tracer(); tr.Enabled() {
				tr.GaugeSet("netif.pending."+f.node.Name(), float64(len(f.pending)))
			}
			return
		}
	}
}

// Node returns the attached kernel node.
func (f *IF) Node() *kern.Node { return f.node }

// Interconnect returns the attached fabric.
func (f *IF) Interconnect() *hpc.Interconnect { return f.ic }

// Endpoint returns this interface's endpoint id.
func (f *IF) Endpoint() topo.EndpointID { return f.ep }

// Register installs the handler for a service name. Registering the
// same name twice panics: it is a wiring bug.
func (f *IF) Register(name string, svc Service) {
	if _, dup := f.services[name]; dup {
		panic(fmt.Sprintf("netif: service %q registered twice on %s", name, f.node.Name()))
	}
	f.services[name] = svc
}

// Send transmits an Envelope-wrapped message, blocking the subprocess
// until the output section accepts it. size is the wire size in bytes
// (headers included). No CPU is charged here: callers model their own
// protocol costs.
func (f *IF) Send(sp *kern.Subprocess, dst topo.EndpointID, service string, size int, body any) error {
	return f.SendCtx(sp, 0, dst, service, size, body)
}

// SendCtx is Send carrying an explicit trace ID (0 for untraced), so a
// protocol layer can thread one causal ID through every wire message a
// logical operation produces.
func (f *IF) SendCtx(sp *kern.Subprocess, tid uint64, dst topo.EndpointID, service string, size int, body any) error {
	m := f.ic.AllocMessage()
	m.Src, m.Dst, m.Size = f.ep, dst, size
	m.Payload = Envelope{Service: service, Body: body}
	m.Tag = service
	m.Trace = tid
	m.Inc = f.node.Incarnation()
	if err := f.ic.Send(sp.Proc(), m, nil); err != nil {
		f.ic.FreeMessage(m) // never entered the fabric
		return err
	}
	return nil
}

// SendAsync transmits from interrupt or event context: if the output
// section is full the send is retried on the room-available interrupt.
// onDelivered may be nil.
func (f *IF) SendAsync(dst topo.EndpointID, service string, size int, body any, onDelivered func()) {
	f.SendAsyncCtx(0, dst, service, size, body, onDelivered)
}

// SendAsyncCtx is SendAsync carrying an explicit trace ID (0 for
// untraced).
func (f *IF) SendAsyncCtx(tid uint64, dst topo.EndpointID, service string, size int, body any, onDelivered func()) {
	msg := f.ic.AllocMessage()
	msg.Src, msg.Dst, msg.Size = f.ep, dst, size
	msg.Payload = Envelope{Service: service, Body: body}
	msg.Tag = service
	msg.Trace = tid
	msg.Inc = f.node.Incarnation()
	var cb func(*hpc.Message)
	if onDelivered != nil {
		cb = func(*hpc.Message) { onDelivered() }
	}
	if f.trySend(msg, cb) {
		return
	}
	// The output section is full: retry on each room-available
	// interrupt. Only a refused send pays for the retry closure.
	var retry func()
	retry = func() {
		if !f.trySend(msg, cb) {
			f.ic.NotifyRoom(f.ep, retry)
		}
	}
	f.ic.NotifyRoom(f.ep, retry)
}

// trySend offers msg to the output section once. It reports false only
// when the section is full; a message that can never be sent counts as
// done.
func (f *IF) trySend(msg *hpc.Message, cb func(*hpc.Message)) bool {
	ok, err := f.ic.TrySend(msg, cb)
	if err != nil {
		// Unreachable (partitioned) or oversize: drop. End-to-end
		// recovery — channel timeouts, peer-death — is the caller's
		// protocol layer's job.
		f.AsyncDropped++
		f.ic.FreeMessage(msg)
		return true
	}
	return ok
}
