// Package m68k models the execution costs of the HPC/VORX hardware:
// 25 MHz Motorola 68020 processing nodes with 68882 floating-point
// coprocessors, SUN 3 host workstations, and the 160 Mbit/s HPC links.
//
// Every latency the simulation produces is a sum of calibrated
// constants: these hardware and kernel costs, and the typed cost
// constants that protocol and application packages declare beside the
// code that charges them (Table 1's sliding-window costs live in udo).
// They are calibrated against the numbers the paper itself reports
// (Tables 1 and 2, the 303 µs channel latency, the 60 µs user-defined
// object latency, the 80 µs context switch, the 3.2 Mbyte/s bitmap
// rate, and the 12 s vs 2 s download times). DESIGN.md's "Calibrated
// cost model" lists every constant with the paper number it was
// fitted to.
package m68k

import "hpcvorx/internal/sim"

// Costs is the cost model for one node or host CPU plus the interconnect
// constants. A zero Costs is invalid; use DefaultCosts.
type Costs struct {
	// --- raw CPU ---

	// Copy is the per-byte cost of a user-level copy loop
	// (move.l-based memcpy on a 25 MHz 68020).
	Copy sim.Duration
	// KernelCopy is the per-byte cost of a kernel copy with bounds
	// and protection checks (slightly slower than Copy).
	KernelCopy sim.Duration
	// ContextSwitch is a full preemptive context switch including all
	// fixed and floating point registers (paper §5: 80 µs).
	ContextSwitch sim.Duration
	// CoroutineSwitch is a cooperative switch saving only the
	// callee-save registers at a well-defined point (paper §5:
	// coroutines have much less overhead than subprocesses).
	CoroutineSwitch sim.Duration
	// InterruptEntry is the cost of taking an interrupt and
	// dispatching to a service routine.
	InterruptEntry sim.Duration
	// SchedulerWake is the cost of making a blocked subprocess
	// runnable and dispatching it (shorter than ContextSwitch when
	// the processor was idle: no full register image to preserve).
	SchedulerWake sim.Duration
	// Syscall is the supervisor-call entry/exit overhead.
	Syscall sim.Duration
	// SemOp is the cost of one semaphore P or V operation.
	SemOp sim.Duration

	// --- HPC interconnect ---

	// WirePerByte is the transmission time per byte of a 160 Mbit/s
	// link section (0.05 µs/byte).
	WirePerByte sim.Duration
	// HopFixed is the fixed self-routing latency through one cluster
	// (header decode + switch setup).
	HopFixed sim.Duration
	// MaxMessage is the HPC hardware message size limit in bytes.
	MaxMessage int

	// --- VORX channel protocol (stop-and-wait, in-kernel) ---

	// ChanSendProto is kernel protocol processing on the sending
	// side of a channel write (header build, channel table lookup).
	ChanSendProto sim.Duration
	// ChanRecvProto is kernel protocol processing on the receiving
	// side (demultiplex, side-buffer management).
	ChanRecvProto sim.Duration
	// ChanAckProto is the cost of generating or absorbing the
	// software acknowledgement message.
	ChanAckProto sim.Duration

	// --- user-defined communications objects ---

	// UDOSend is the fixed user-level cost to push a message at the
	// hardware registers directly (no kernel, no protocol).
	UDOSend sim.Duration
	// UDORecvISR is the fixed user-level interrupt-service cost to
	// pull a message from the input section.
	UDORecvISR sim.Duration

	// --- S/NET baseline interconnect ---

	// SNETBusPerByte is the shared-bus transfer time per byte.
	SNETBusPerByte sim.Duration
	// SNETBusFixed is the per-transfer bus arbitration/setup cost.
	SNETBusFixed sim.Duration
	// SNETFifoCap is the per-processor receive FIFO capacity in
	// bytes (paper §2: 2048).
	SNETFifoCap int
	// SNETReadFixed is the receiver's fixed cost to read one message
	// (or one rejected-message fragment) out of its FIFO.
	SNETReadFixed sim.Duration

	// --- host workstations (SUN 3) ---

	// HostFork is the host cost to create one stub process.
	HostFork sim.Duration
	// HostSyscall is the host-side cost to execute one forwarded
	// UNIX system call.
	HostSyscall sim.Duration
	// HostCopy is the host per-byte copy cost.
	HostCopy sim.Duration
	// HostMaxFDs is the SunOS per-process open file limit (paper
	// §3.3: 32).
	HostMaxFDs int
}

// DefaultCosts returns the calibrated model for the 1988 HPC/VORX
// installation: 25 MHz 68020 + 68882 nodes, SUN 3 hosts, 160 Mbit/s
// HPC ports, 1060-byte hardware message limit.
func DefaultCosts() *Costs {
	return &Costs{
		Copy:            sim.Microseconds(0.28),
		KernelCopy:      sim.Microseconds(0.29),
		ContextSwitch:   sim.Microseconds(80),
		CoroutineSwitch: sim.Microseconds(9),
		InterruptEntry:  sim.Microseconds(25),
		SchedulerWake:   sim.Microseconds(42),
		Syscall:         sim.Microseconds(18),
		SemOp:           sim.Microseconds(8),

		WirePerByte: sim.Microseconds(0.05),
		HopFixed:    sim.Microseconds(1.0),
		MaxMessage:  1060,

		ChanSendProto: sim.Microseconds(81),
		ChanRecvProto: sim.Microseconds(81),
		ChanAckProto:  sim.Microseconds(16),

		UDOSend:    sim.Microseconds(14),
		UDORecvISR: sim.Microseconds(15),

		SNETBusPerByte: sim.Microseconds(0.10),
		SNETBusFixed:   sim.Microseconds(5),
		SNETFifoCap:    2048,
		SNETReadFixed:  sim.Microseconds(45),

		HostFork:    sim.Milliseconds(95),
		HostSyscall: sim.Microseconds(400),
		HostCopy:    sim.Microseconds(0.10),
		HostMaxFDs:  32,
	}
}

// CopyTime returns the time for a user-level copy of n bytes.
func (c *Costs) CopyTime(n int) sim.Duration {
	return sim.Duration(n) * c.Copy
}

// KernelCopyTime returns the time for a kernel copy of n bytes.
func (c *Costs) KernelCopyTime(n int) sim.Duration {
	return sim.Duration(n) * c.KernelCopy
}

// WireTime returns the link transmission time of an n-byte message
// over one 160 Mbit/s link section, excluding routing latency.
func (c *Costs) WireTime(n int) sim.Duration {
	return sim.Duration(n) * c.WirePerByte
}

// HostCopyTime returns the time for a host copy of n bytes.
func (c *Costs) HostCopyTime(n int) sim.Duration {
	return sim.Duration(n) * c.HostCopy
}
