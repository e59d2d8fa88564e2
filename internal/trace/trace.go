// Package trace is the unified event-tracing and metrics layer of the
// simulated LAM: the tooling substrate paper §6.2 credits for HPC/VORX
// being operable at all ("the tools are what made the system usable").
// Where oscope sees CPU accounting and the profiler sees program
// phases, trace sees *everything* — every HPC message, S/NET bus
// transfer, channel write/fragment/retransmit, and supervisor
// heartbeat/checkpoint emits span events carrying a trace ID, so one
// message can be followed hop-by-hop through switch clusters, across
// backpressure stalls, and even across a node crash and endpoint
// migration.
//
// Three design rules:
//
//  1. Zero cost when disabled. Every hook is a method on *Tracer that
//     is safe on a nil receiver and returns immediately when tracing
//     is off; a disabled tracer allocates nothing and assigns no trace
//     IDs, so the instrumented system is byte-identical to the
//     uninstrumented one (asserted by test and by vorxbench E14).
//  2. No virtual-time perturbation. Recording is host-side only: no
//     simulated CPU is charged, no events are scheduled. Virtual
//     timestamps, delivery order, and every bench table are identical
//     with tracing on or off.
//  3. Deterministic output. Events carry a global sequence number,
//     exporters iterate in recorded order, and metrics render sorted,
//     so two traced runs with the same seed produce identical files.
//
// Exporters: WriteChrome emits Chrome trace_event JSON (one "process"
// per node, one "thread" per link/channel — load it in chrome://tracing
// or Perfetto); WriteFlight emits a plain-text flight-recorder dump
// that ReadFlight parses back. SetLimit turns the tracer into a
// bounded-memory flight recorder that keeps only the newest events.
package trace

import (
	"fmt"

	"hpcvorx/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds, grouped by subsystem.
const (
	// Channel protocol (internal/channels).
	KWrite      Kind = iota // application write enqueued (span root)
	KFragment               // fragment handed to the fabric
	KChanDel                // message delivered to the application end
	KAck                    // software acknowledgement matched a pending write
	KBusy                   // receiver out of side buffers, fragment discarded
	KResume                 // retransmission requested after a busy
	KRetransmit             // fragment re-sent (resume or timeout or rebind replay)
	KRead                   // application read consumed a message
	KClose                  // channel closed
	// HPC fabric (internal/hpc).
	KEnqueue // message accepted into the sender's output section
	KBlocked // transfer stalled behind a busy/backpressured/failed link
	KAcquire // link arbitration won, transmission starting
	KHop     // transmission completed into the downstream buffer (span)
	KDeliver // message arrived in the destination input section
	// Node interface (internal/netif).
	KService // envelope demultiplexed to a registered service
	// S/NET (internal/snet).
	KBus      // one bus transfer (span)
	KFifoFull // receive FIFO overflowed, fragment retained as junk
	// Sender recovery (internal/flowctl).
	KFlow // strategy-level control: retry, backoff, rts, cts
	// Node kernel (internal/kern).
	KAccount // one CPU accounting interval (span)
	KCrash   // node crashed
	KRestart // node restarted
	// Supervision (internal/super).
	KHeartbeat  // heartbeat emitted by a monitored node
	KCheckpoint // checkpoint snapshot shipped
	KSuper      // supervisor decision (suspect, confirm, spare, rebind, ...)
	// Simulation kernel (internal/sim).
	KProc // proc lifecycle (spawn, done)
	// Profiler (internal/profiler).
	KPhase // one profiled program phase (span)
	// Pipelined fast path (PR 5).
	KWindow // sliding-window credit consumed / advanced
	// Incarnation fencing (PR 6).
	KFence // frame refused by a fence, or a machine self-fencing
	// Channel virtualization (PR 7).
	KMigrate // vchannel placement change: mint, seal, drain, place, refuse
	numKinds
)

var kindNames = [numKinds]string{
	KWrite: "write", KFragment: "fragment", KChanDel: "chan-deliver",
	KAck: "ack", KBusy: "busy", KResume: "resume", KRetransmit: "retransmit",
	KRead: "read", KClose: "close",
	KEnqueue: "enqueue", KBlocked: "blocked", KAcquire: "link-acquire",
	KHop: "hop", KDeliver: "deliver",
	KService: "service",
	KBus:     "bus", KFifoFull: "fifo-full",
	KFlow:    "flow",
	KAccount: "acct", KCrash: "crash", KRestart: "restart",
	KHeartbeat: "heartbeat", KCheckpoint: "checkpoint", KSuper: "super",
	KProc:    "proc",
	KPhase:   "phase",
	KWindow:  "window",
	KFence:   "fence",
	KMigrate: "migrate",
}

var kindCats = [numKinds]string{
	KWrite: "chan", KFragment: "chan", KChanDel: "chan", KAck: "chan",
	KBusy: "chan", KResume: "chan", KRetransmit: "chan", KRead: "chan",
	KClose:   "chan",
	KEnqueue: "hpc", KBlocked: "hpc", KAcquire: "hpc", KHop: "hpc",
	KDeliver: "hpc",
	KService: "netif",
	KBus:     "snet", KFifoFull: "snet",
	KFlow:    "flowctl",
	KAccount: "kern", KCrash: "kern", KRestart: "kern",
	KHeartbeat: "super", KCheckpoint: "super", KSuper: "super",
	KProc:    "sim",
	KPhase:   "prof",
	KWindow:  "chan",
	KFence:   "netif",
	KMigrate: "vchan",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Category returns the subsystem the kind belongs to ("chan", "hpc",
// "snet", "netif", "flowctl", "kern", "super", "sim", "prof").
func (k Kind) Category() string {
	if int(k) < len(kindCats) {
		return kindCats[k]
	}
	return "?"
}

// KindByName resolves a wire name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one recorded occurrence. Dur is zero for instant events and
// positive for spans (the event covers [At, At+Dur)). TID is the trace
// ID threading one message's journey through the stack; 0 means the
// event belongs to no message.
type Event struct {
	Seq    uint64
	At     sim.Time
	Dur    sim.Duration
	Kind   Kind
	TID    uint64
	Node   string // Chrome "process": machine name, "fabric", or "snet"
	Lane   string // Chrome "thread": link, channel, "cpu", "bus", ...
	Detail string
}

// Sink consumes trace events as they are recorded. The Tracer itself
// is a Sink, so components that produce their own event streams (the
// profiler, a replayed recording) can pour them into a live tracer.
type Sink interface {
	TraceEvent(e Event)
}

// Tracer records events and metrics for one simulation. The zero of
// usefulness is built in: a nil *Tracer, or one that is disabled, is a
// valid no-op sink for every hook.
type Tracer struct {
	k       *sim.Kernel
	enabled bool
	reg     *Registry
	forward Sink

	limit   int // >0: ring buffer of this many events
	events  []Event
	start   int // ring read position once wrapped
	wrapped bool
	seq     uint64
	nextTID uint64
	dropped uint64
}

// New creates a disabled tracer bound to the simulation kernel's
// virtual clock. Call Enable to start recording.
func New(k *sim.Kernel) *Tracer {
	t := &Tracer{k: k}
	t.reg = NewRegistry(func() sim.Time {
		if k == nil {
			return 0
		}
		return k.Now()
	})
	return t
}

// Enable starts recording. Safe on nil (no-op).
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled = true
	}
}

// Disable stops recording; already-recorded events are kept.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled = false
	}
}

// Enabled reports whether the tracer is recording. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// SetLimit bounds memory: only the newest n events are kept (the
// flight-recorder ring). 0 restores unbounded recording. Changing the
// limit drops events already recorded.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.limit = n
	t.events = nil
	t.start = 0
	t.wrapped = false
}

// SetForward installs a secondary sink that receives every recorded
// event as it happens (live consumers like an attached oscilloscope).
func (t *Tracer) SetForward(s Sink) {
	if t != nil {
		t.forward = s
	}
}

// NewTraceID allocates the next message trace ID, or 0 when tracing is
// disabled — callers propagate the 0 and every hook ignores it, which
// is what keeps the disabled path allocation-free.
func (t *Tracer) NewTraceID() uint64 {
	if t == nil || !t.enabled {
		return 0
	}
	t.nextTID++
	return t.nextTID
}

// Emit records an instant event at the current virtual time. Nil-safe,
// no-op when disabled.
func (t *Tracer) Emit(kind Kind, tid uint64, node, lane, detail string) {
	if t == nil || !t.enabled {
		return
	}
	t.record(Event{At: t.k.Now(), Kind: kind, TID: tid, Node: node, Lane: lane, Detail: detail})
}

// EmitSpan records a span event covering [start, now).
func (t *Tracer) EmitSpan(kind Kind, tid uint64, node, lane string, start sim.Time, detail string) {
	if t == nil || !t.enabled {
		return
	}
	now := t.k.Now()
	t.record(Event{At: start, Dur: now.Sub(start), Kind: kind, TID: tid, Node: node, Lane: lane, Detail: detail})
}

// TraceEvent implements Sink: the event is recorded as-is (its At/Dur
// are preserved) with a fresh sequence number.
func (t *Tracer) TraceEvent(e Event) {
	if t == nil || !t.enabled {
		return
	}
	t.record(e)
}

func (t *Tracer) record(e Event) {
	t.seq++
	e.Seq = t.seq
	if t.forward != nil {
		t.forward.TraceEvent(e)
	}
	if t.limit > 0 && len(t.events) == t.limit {
		t.events[t.start] = e
		t.start = (t.start + 1) % t.limit
		t.wrapped = true
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Events returns the recorded events in order (oldest first; under a
// ring limit, the newest retained window).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		return append([]Event(nil), t.events...)
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Len returns the number of retained events. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns how many events the ring limit has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Metrics returns the tracer's registry (nil on a nil tracer).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// ProcEvent implements sim.Probe: proc lifecycle transitions land in
// the event stream under the "sim" process.
func (t *Tracer) ProcEvent(at sim.Time, proc string, what string) {
	if t == nil || !t.enabled {
		return
	}
	t.record(Event{At: at, Kind: KProc, Node: "sim", Lane: "procs", Detail: what + " " + proc})
}

// QueueCompaction implements sim.CompactionProbe: every lazy-cancel
// sweep lands in the metrics registry, so cancel-heavy workloads can
// verify the event queue is actually reclaiming canceled shells.
func (t *Tracer) QueueCompaction(at sim.Time, swept int) {
	if t == nil || !t.enabled {
		return
	}
	t.reg.Counter("sim.queue.compactions").Add(1)
	t.reg.Counter("sim.queue.compacted_events").Add(float64(swept))
}

// Count adds d to the named counter. Nil-safe, no-op when disabled.
func (t *Tracer) Count(name string, d float64) {
	if t == nil || !t.enabled {
		return
	}
	t.reg.Counter(name).Add(d)
}

// GaugeSet sets the named gauge. Nil-safe, no-op when disabled.
func (t *Tracer) GaugeSet(name string, v float64) {
	if t == nil || !t.enabled {
		return
	}
	t.reg.Gauge(name).Set(v)
}

// Observe records v into the named histogram. Nil-safe, no-op when
// disabled.
func (t *Tracer) Observe(name string, v float64) {
	if t == nil || !t.enabled {
		return
	}
	t.reg.Histogram(name).Observe(v)
}
