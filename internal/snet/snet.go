// Package snet models the S/NET, the single-bus interconnect that
// preceded the HPC (Ahuja 1983), together with the flow-control
// behaviour that paper §2 describes:
//
//   - All processors share one bus; transfers serialize on it.
//   - Each processor has a 2048-byte FIFO input buffer holding several
//     incoming messages.
//   - When a message does not fit, the FIFO *retains the portion
//     received up to the overflow*, rejects the message, and returns a
//     fifo-full signal to the transmitter. The receiving software must
//     read and discard the partial fragment — which is precisely what
//     makes retry loops livelock under many-to-one traffic.
//
// Recovery strategies (spin-retry, random backoff, reservation) are
// layered on top in package flowctl.
package snet

import (
	"fmt"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

// Result reports the hardware outcome of one bus transfer.
type Result int

const (
	// Delivered means the whole message entered the receiver's FIFO.
	Delivered Result = iota
	// FifoFull means the receiver's FIFO lacked room; a fragment of
	// the message (possibly empty) was deposited and must be read
	// and discarded by the receiver.
	FifoFull
)

func (r Result) String() string {
	if r == Delivered {
		return "delivered"
	}
	return "fifo-full"
}

// Message is a delivered S/NET message.
type Message struct {
	Src     int
	Size    int
	Payload any
	// Corrupt marks a message damaged in transit (fault injection:
	// the paper's early S/NET work "was unsure of its error
	// characteristics" and added detection/recovery in software).
	Corrupt bool
}

// Stats counts network-level activity.
type Stats struct {
	Transfers   int // bus transfers attempted
	Delivered   int // complete messages deposited
	Rejected    int // fifo-full results
	Lost        int // transfers destroyed in flight by fault injection
	JunkBytes   int64
	DataBytes   int64
	BusBusyTime sim.Duration
}

// Fate is an injector's verdict on one bus transfer.
type Fate int

const (
	// FateDeliver deposits the message intact (the default).
	FateDeliver Fate = iota
	// FateCorrupt deposits the bytes damaged; software checksums must
	// catch it.
	FateCorrupt
	// FateDrop destroys the message in flight: the bus transfer
	// completes and the transmitter sees success, but nothing reaches
	// the receiver's FIFO. Only an end-to-end timeout can detect it.
	FateDrop
)

// Injector decides the fate of each bus transfer that fit the
// receiver's FIFO. It is the single fault-injection point of the
// S/NET model; package fault installs probabilistic loss/corruption
// models through it. Injectors are consulted in bus-transfer order,
// which is deterministic, so a seeded injector yields reproducible
// fault patterns.
type Injector interface {
	Transfer(src, dst, size int) Fate
}

// InjectorFunc adapts a function to the Injector interface.
type InjectorFunc func(src, dst, size int) Fate

// Transfer implements Injector.
func (f InjectorFunc) Transfer(src, dst, size int) Fate { return f(src, dst, size) }

// Network is one S/NET: a bus plus n stations.
type Network struct {
	k        *sim.Kernel
	costs    *m68k.Costs
	stations []*Station
	busSem   *sim.Semaphore
	stats    Stats

	injector Injector
	tracer   *trace.Tracer
}

// SetTracer installs the unified event tracer: bus transfers become
// spans on the "snet"/"bus" lane, FIFO overflows become instants on
// the receiving station's lane, and FIFO occupancy is exported as a
// per-station gauge.
func (nw *Network) SetTracer(t *trace.Tracer) { nw.tracer = t }

// SetInjector installs the network's fault injector (nil disables
// injection).
func (nw *Network) SetInjector(inj Injector) { nw.injector = inj }

// SetCorruptEvery makes every nth accepted data transfer arrive
// corrupted (0 disables injection). It is a thin shim over
// SetInjector kept for existing callers; installing it replaces any
// other injector.
func (nw *Network) SetCorruptEvery(n int) {
	if n <= 0 {
		nw.SetInjector(nil)
		return
	}
	transferred := 0
	nw.SetInjector(InjectorFunc(func(src, dst, size int) Fate {
		transferred++
		if transferred%n == 0 {
			return FateCorrupt
		}
		return FateDeliver
	}))
}

// NewNetwork creates an S/NET with n stations. The paper's largest
// system had 12; most had 8.
func NewNetwork(k *sim.Kernel, costs *m68k.Costs, n int) *Network {
	nw := &Network{k: k, costs: costs, busSem: sim.NewSemaphore(k, "snet-bus", 1)}
	for i := 0; i < n; i++ {
		st := &Station{nw: nw, id: i, fifoCap: costs.SNETFifoCap}
		st.fifoCond = sim.NewCond(k, fmt.Sprintf("snet-fifo%d", i))
		nw.stations = append(nw.stations, st)
	}
	return nw
}

// Stations returns the number of stations.
func (nw *Network) Stations() int { return len(nw.stations) }

// Station returns station i.
func (nw *Network) Station(i int) *Station { return nw.stations[i] }

// Stats returns a snapshot of the network counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Station is one processor's S/NET interface: its bus port and its
// receive FIFO.
type Station struct {
	nw       *Network
	id       int
	fifoCap  int
	fifoUsed int
	records  []fifoRecord
	fifoCond *sim.Cond
	deliver  func(m Message)
	draining bool

	// Gray degradation (PR 6): a flaky-but-alive station. graySlow
	// multiplies the per-record read cost of the drain process;
	// grayDrop, when non-nil, is consulted per incoming transfer and
	// true loses the deposit as if the FIFO logic glitched.
	graySlow float64
	grayDrop func(src, size int) bool

	// Counters.
	DeliveredMsgs int
	DiscardedJunk int
	// GrayDropped counts transfers lost to gray degradation.
	GrayDropped int
}

// fifoRecord is one entry in a receive FIFO: either a whole message or
// a junk fragment of a rejected one.
type fifoRecord struct {
	size    int
	junk    bool
	src     int
	payload any
	corrupt bool
}

// ID returns the station index.
func (s *Station) ID() int { return s.id }

// FifoUsed returns the bytes currently occupying the FIFO.
func (s *Station) FifoUsed() int { return s.fifoUsed }

// FifoFree returns the free FIFO bytes.
func (s *Station) FifoFree() int { return s.fifoCap - s.fifoUsed }

// SetDeliver installs the callback invoked (from the station's drain
// process) for each complete message read out of the FIFO.
func (s *Station) SetDeliver(fn func(m Message)) { s.deliver = fn }

// SetGray makes the station flaky without killing it: slow (> 1)
// multiplies the fixed per-record cost of the kernel drain process,
// and drop — when non-nil — is consulted per incoming transfer; true
// loses the deposit while the transmitter still sees a clean bus
// transfer. SetGray(0, nil) restores a healthy station. The fault
// engine drives this with a seeded generator so runs stay
// deterministic.
func (s *Station) SetGray(slow float64, drop func(src, size int) bool) {
	s.graySlow = slow
	s.grayDrop = drop
}

// StartKernel spawns the station's low-level input process, which
// reads records out of the FIFO as fast as the CPU allows: a fixed
// per-record cost plus the per-byte copy cost. Junk fragments are
// read and discarded exactly like real data, which is what limits the
// drain rate under overflow.
func (s *Station) StartKernel() {
	if s.draining {
		return
	}
	s.draining = true
	pr := s.nw.k.Spawn(fmt.Sprintf("snet-kern%d", s.id), func(p *sim.Proc) {
		// The FIFO frees space word by word as the processor reads it
		// out, not record-at-a-time. That gradual freeing is what lets
		// spinning retransmitters consume every opening as a junk
		// fragment before room for a whole message ever accumulates —
		// the lockout of paper §2. We model it with 32-byte chunks.
		const chunk = 32
		for {
			for len(s.records) == 0 {
				s.fifoCond.Wait(p)
			}
			rec := s.records[0]
			s.records = s.records[1:]
			rd := s.nw.costs.SNETReadFixed
			if s.graySlow > 1 {
				rd = sim.Duration(float64(rd) * s.graySlow)
			}
			p.Sleep(rd)
			for done := 0; done < rec.size; {
				n := chunk
				if rec.size-done < n {
					n = rec.size - done
				}
				p.Sleep(s.nw.costs.CopyTime(n))
				s.fifoUsed -= n
				done += n
			}
			if rec.junk {
				s.DiscardedJunk++
			} else {
				s.DeliveredMsgs++
				if s.deliver != nil {
					s.deliver(Message{Src: rec.src, Size: rec.size, Payload: rec.payload, Corrupt: rec.corrupt})
				}
			}
		}
	})
	pr.SetDaemon(true)
}

// Send performs one bus transfer of size bytes to station dst,
// blocking p for bus arbitration and the transfer time. The result
// reports whether the message fit in dst's FIFO; on FifoFull the
// fragment that fit (possibly zero bytes) was deposited as junk the
// receiver must discard.
func (s *Station) Send(p *sim.Proc, dst, size int, payload any) Result {
	if dst < 0 || dst >= len(s.nw.stations) {
		panic(fmt.Sprintf("snet: bad destination %d", dst))
	}
	if size <= 0 {
		panic("snet: message size must be positive")
	}
	nw := s.nw
	nw.busSem.Acquire(p)
	start := p.Now()
	p.Sleep(nw.costs.SNETBusFixed + sim.Duration(size)*nw.costs.SNETBusPerByte)
	nw.stats.BusBusyTime += p.Now().Sub(start)
	nw.busSem.Release()

	nw.stats.Transfers++
	if tr := nw.tracer; tr.Enabled() {
		tr.EmitSpan(trace.KBus, 0, "snet", "bus", start, fmt.Sprintf("%d->%d %dB", s.id, dst, size))
		tr.Count("snet.transfers", 1)
	}
	d := nw.stations[dst]
	if d.fifoUsed+size <= d.fifoCap {
		fate := FateDeliver
		if nw.injector != nil {
			fate = nw.injector.Transfer(s.id, dst, size)
		}
		if fate == FateDrop {
			// The transmitter saw a clean transfer; the bytes are gone.
			nw.stats.Lost++
			return Delivered
		}
		if d.grayDrop != nil && d.grayDrop(s.id, size) {
			// Gray receiver hardware lost the deposit; like FateDrop,
			// only an end-to-end timeout can tell.
			d.GrayDropped++
			nw.stats.Lost++
			return Delivered
		}
		d.push(fifoRecord{size: size, src: s.id, payload: payload, corrupt: fate == FateCorrupt})
		nw.stats.Delivered++
		nw.stats.DataBytes += int64(size)
		return Delivered
	}
	// Overflow: the fragment received before the FIFO filled stays
	// behind as junk.
	frag := d.fifoCap - d.fifoUsed
	if frag > 0 {
		d.push(fifoRecord{size: frag, junk: true, src: s.id})
		nw.stats.JunkBytes += int64(frag)
	}
	nw.stats.Rejected++
	if tr := nw.tracer; tr.Enabled() {
		tr.Emit(trace.KFifoFull, 0, "snet", fmt.Sprintf("fifo%d", dst),
			fmt.Sprintf("from %d %dB (junk %dB)", s.id, size, frag))
		tr.Count("snet.fifo_full", 1)
	}
	return FifoFull
}

func (s *Station) push(rec fifoRecord) {
	s.fifoUsed += rec.size
	s.records = append(s.records, rec)
	if tr := s.nw.tracer; tr.Enabled() {
		tr.GaugeSet(fmt.Sprintf("snet.fifo%d.used", s.id), float64(s.fifoUsed))
	}
	s.fifoCond.Signal()
}
