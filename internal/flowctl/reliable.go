package flowctl

import (
	"strconv"

	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
)

// Reliable is the software error detection and recovery the early
// S/NET channel protocol carried (paper §4): every data message is
// checksummed and acknowledged; a corrupted arrival triggers a
// negative acknowledgement and retransmission, and a lost or damaged
// acknowledgement is covered by a sender timeout. The protocol is
// stop-and-wait, which is what makes recovery cheap: "the sending
// process blocks until the message was successfully received,
// eliminating the need for the kernel to make a copy of the message
// before sending it" — on a NAK or timeout the sender re-reads the
// user buffer it still holds. Receivers deduplicate by sequence
// number, so delivery is exactly-once.
type Reliable struct {
	k       *sim.Kernel
	pending []*relPend
	userFns []func(m snet.Message)
	seq     int // per-instance sequence counter

	// AckTimeout is how long a sender waits for an acknowledgement
	// before retransmitting. NewReliable defaults it to 5 ms; adjust
	// before traffic flows.
	AckTimeout sim.Duration

	// Retransmissions counts NAK-triggered resends; Timeouts counts
	// resends after a lost or corrupted acknowledgement.
	Retransmissions int
	Timeouts        int
	// Delivered counts messages handed to receivers exactly once.
	Delivered int

	// Incarnation fencing (PR 6): every data frame is stamped with the
	// sending station's incarnation (boot count, starts at 1); a
	// receiver that has fenced a source at a higher floor drops stale
	// frames without acknowledging them, so a zombie sender cannot
	// complete a stop-and-wait exchange. incs is lazily sized; fences
	// maps (receiver, source) to the floor.
	incs   []uint32
	fences []map[int]uint32
	// FencedDrops counts data frames refused by an incarnation fence.
	FencedDrops int
}

// relPend is one Send's outstanding exchange: the sending proc and the
// token of the park that awaits its ack or timeout.
type relPend struct {
	seq    int
	result int // 0 pending, 1 acked, -1 nakked, 2 timed out
	p      *sim.Proc
	tok    sim.ParkToken
}

type relData struct {
	seq  int
	inc  uint32 // sender incarnation at transmit time
	user any
}
type relAck struct {
	seq int
	ok  bool
}

const relAckBytes = 12

// NewReliable installs the protocol on every station of nw.
func NewReliable(k *sim.Kernel, nw *snet.Network) *Reliable {
	n := nw.Stations()
	r := &Reliable{
		k:          k,
		pending:    make([]*relPend, n),
		userFns:    make([]func(m snet.Message), n),
		incs:       make([]uint32, n),
		fences:     make([]map[int]uint32, n),
		AckTimeout: 5 * sim.Millisecond,
	}
	for i := range r.incs {
		r.incs[i] = 1
	}
	for i := 0; i < n; i++ {
		i := i
		st := nw.Station(i)
		seen := map[int]bool{} // dedupe by seq (unique per Reliable instance)
		st.SetDeliver(func(m snet.Message) {
			switch b := m.Payload.(type) {
			case relData:
				if fl := r.fences[i]; fl != nil {
					if min, ok := fl[m.Src]; ok && b.inc < min {
						// Stale incarnation: refuse silently. No ack means
						// the zombie's stop-and-wait never completes.
						r.FencedDrops++
						return
					}
				}
				if m.Corrupt {
					// Checksum failure: NAK, the sender will resend.
					r.sendCtl(st, m.Src, b.seq, false)
					return
				}
				if !seen[b.seq] {
					seen[b.seq] = true
					r.Delivered++
					if fn := r.userFns[i]; fn != nil {
						fn(snet.Message{Src: m.Src, Size: m.Size, Payload: b.user})
					}
				}
				r.sendCtl(st, m.Src, b.seq, true)
			case relAck:
				if m.Corrupt {
					return // a damaged ack is garbage; timeout covers it
				}
				pd := r.pending[i]
				if pd == nil || pd.seq != b.seq || pd.result != 0 {
					return // stale ack from a retransmission round
				}
				if b.ok {
					pd.result = 1
				} else {
					pd.result = -1
				}
				pd.p.Wake(pd.tok)
			}
		})
		st.StartKernel()
	}
	return r
}

// sendCtl transmits an ACK/NAK from a short-lived kernel process (the
// drain loop must not block on the bus).
func (r *Reliable) sendCtl(st *snet.Station, to, seq int, ok bool) {
	r.k.Spawn("rel-ctl", func(p *sim.Proc) {
		for st.Send(p, to, relAckBytes, relAck{seq: seq, ok: ok}) != snet.Delivered {
			p.Sleep(50 * sim.Microsecond)
		}
	})
}

// SetDeliver installs the exactly-once receive callback for station i.
func (r *Reliable) SetDeliver(i int, fn func(m snet.Message)) { r.userFns[i] = fn }

// Incarnation returns station i's current incarnation (boot count).
func (r *Reliable) Incarnation(i int) uint32 { return r.incs[i] }

// BumpIncarnation models station i rebooting: subsequent frames it
// sends are stamped with the next incarnation.
func (r *Reliable) BumpIncarnation(i int) { r.incs[i]++ }

// Fence makes station at refuse data frames from src stamped below
// min. Fences only tighten; a lower min than the installed floor is a
// no-op.
func (r *Reliable) Fence(at, src int, min uint32) {
	if r.fences[at] == nil {
		r.fences[at] = make(map[int]uint32)
	}
	if r.fences[at][src] < min {
		r.fences[at][src] = min
	}
}

// Send reliably delivers one message: transmit, await the ACK; on NAK,
// timeout, or FIFO overflow retransmit from the still-intact user
// buffer. Returns the number of data transfers used. One outstanding
// Send per station at a time (stop-and-wait).
func (r *Reliable) Send(p *sim.Proc, src *snet.Station, dst, size int, payload any) int {
	r.seq++
	seq := r.seq
	transfers := 0
	// One pending record serves every retransmission round: an ack for
	// this seq is equally valid whichever transmission it answers (the
	// previous round's timer is stopped before the record is re-armed).
	pd := &relPend{seq: seq, p: p}
	for {
		transfers++
		for src.Send(p, dst, size, relData{seq: seq, inc: r.incs[src.ID()], user: payload}) != snet.Delivered {
			p.Sleep(100 * sim.Microsecond)
			transfers++
		}
		pd.result = 0
		pd.tok = p.Arm()
		r.pending[src.ID()] = pd
		timer := r.k.After(r.AckTimeout, func() {
			if pd.result == 0 {
				pd.result = 2
				pd.p.Wake(pd.tok)
			}
		})
		p.Block("rel-ack ", strconv.Itoa(src.ID()))
		timer.Stop()
		r.pending[src.ID()] = nil
		switch pd.result {
		case 1:
			return transfers
		case -1:
			r.Retransmissions++
		case 2:
			r.Timeouts++
		}
	}
}

// Name identifies the protocol in reports.
func (r *Reliable) Name() string { return "reliable-stop-and-wait" }
