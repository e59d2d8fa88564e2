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
}

// Stats counts network-level activity.
type Stats struct {
	Transfers int // bus transfers attempted
	Delivered int // complete messages deposited
	Rejected  int // fifo-full results
	JunkBytes int64
	DataBytes int64
}

// Network is one S/NET: a bus plus n stations.
type Network struct {
	k        *sim.Kernel
	costs    *m68k.Costs
	stations []*Station
	busSem   *sim.Semaphore
	stats    Stats
}

// NewNetwork creates an S/NET with n stations. The paper's largest
// system had 12; most had 8.
func NewNetwork(k *sim.Kernel, costs *m68k.Costs, n int) *Network {
	nw := &Network{k: k, costs: costs, busSem: sim.NewSemaphore("snet-bus", 1)}
	for i := 0; i < n; i++ {
		st := &Station{nw: nw, id: i, fifoCap: costs.SNETFifoCap}
		st.fifoCond = sim.NewCond(fmt.Sprintf("snet-fifo%d", i))
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

	// Counters.
	DiscardedJunk int
}

// fifoRecord is one entry in a receive FIFO: either a whole message or
// a junk fragment of a rejected one.
type fifoRecord struct {
	size    int
	junk    bool
	src     int
	payload any
}

// ID returns the station index.
func (s *Station) ID() int { return s.id }

// SetDeliver installs the callback invoked (from the station's drain
// process) for each complete message read out of the FIFO.
func (s *Station) SetDeliver(fn func(m Message)) { s.deliver = fn }

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
			p.Sleep(s.nw.costs.SNETReadFixed)
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
			} else if s.deliver != nil {
				s.deliver(Message{Src: rec.src, Size: rec.size, Payload: rec.payload})
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
	p.Sleep(nw.costs.SNETBusFixed + sim.Duration(size)*nw.costs.SNETBusPerByte)
	nw.busSem.Release()

	nw.stats.Transfers++
	d := nw.stations[dst]
	if d.fifoUsed+size <= d.fifoCap {
		d.push(fifoRecord{size: size, src: s.id, payload: payload})
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
	return FifoFull
}

func (s *Station) push(rec fifoRecord) {
	s.fifoUsed += rec.size
	s.records = append(s.records, rec)
	s.fifoCond.Signal()
}
