// Virtual-channel invariants (PR 7). The checker extends its model
// with per-vchannel state and implements vchan.Verifier:
//
//   - V1, term monotonicity: the balancer's minted terms strictly
//     increase per vchannel; the consumer adopts terms in increasing
//     order and never delivers a frame below its adopted term (a
//     stale delivery is the fencing failure the whole design
//     exists to prevent).
//   - V2, exactly-once + FIFO per vchannel: application deliveries
//     are exactly the sequence 0,1,2,… with no gaps, no repeats, and
//     no rollback — stronger than the channel-layer I2, which allows
//     a declared reincarnation replay window. A vchannel's cursor
//     survives migration, so nothing is ever re-delivered.
//   - V3, cross-term replay window: when a producer replays its
//     retained suffix on a new placement, the replay must start
//     strictly above the acked stable mark (nothing acknowledged is
//     re-sent) and at or below the consumer's cursor +1 (nothing
//     undelivered is skipped) — the drain-to-stable-mark contract.
//   - V4, no acked-but-lost: a cumulative ack covers only delivered
//     sequences.
package verify

import (
	"hpcvorx/internal/core"
	"hpcvorx/internal/vchan"
)

// vchanState is the checker's model of one vchannel.
type vchanState struct {
	nextWrite int            // producer's next sequence
	written   map[int]uint64 // seq -> payload fingerprint
	delivered int            // consumer cursor: next in-order seq
	delivFp   map[int]uint64 // seq -> fingerprint at delivery
	ackHigh   int            // highest cumulative ack processed (-1 none)
	minted    uint32         // last term the balancer minted
	consTerm  uint32         // term the consumer has adopted
	prodTerm  uint32         // term of the producer's last write
}

// AttachVChan wires the checker into a vchan fabric as its protocol
// verifier. Call alongside Attach; the checker then watches both the
// channel layer and the virtualization layer of the same run.
func (c *Checker) AttachVChan(f *vchan.Fabric) {
	f.SetVerifier(c)
}

// AttachAll is Attach plus vchan wiring in one call.
func AttachAll(sys *core.System, f *vchan.Fabric) *Checker {
	c := Attach(sys)
	if f != nil {
		c.AttachVChan(f)
	}
	return c
}

func (c *Checker) vchanState(v uint64) *vchanState {
	if c.vchans == nil {
		c.vchans = make(map[uint64]*vchanState)
	}
	vs := c.vchans[v]
	if vs == nil {
		vs = &vchanState{
			written: make(map[int]uint64),
			delivFp: make(map[int]uint64),
			ackHigh: -1,
		}
		c.vchans[v] = vs
	}
	return vs
}

// ---- vchan.Verifier ----

// VChanWrite checks the producer mints a gapless sequence at a
// non-decreasing term.
func (c *Checker) VChanWrite(v uint64, name string, seq, size int, payload any, term uint32) {
	c.VWrites++
	vs := c.vchanState(v)
	if seq != vs.nextWrite {
		c.violate("vchan-write-gap", "vchan %q: wrote seq %d, expected %d", name, seq, vs.nextWrite)
	}
	if seq >= vs.nextWrite {
		vs.nextWrite = seq + 1
	}
	if term < vs.prodTerm {
		c.violate("vchan-term-regress", "vchan %q seq %d written at term %d after term %d", name, seq, term, vs.prodTerm)
	}
	vs.prodTerm = term
	vs.written[seq] = fingerprint(payload)
}

// VChanDeliver checks V1 and V2 at the consumer. A non-dup delivery
// must be the cursor's sequence at exactly the consumer's adopted
// term; a dup must re-cover an already-delivered sequence
// byte-identically.
func (c *Checker) VChanDeliver(v uint64, name string, seq int, payload any, term uint32, dup bool) {
	vs := c.vchanState(v)
	fp := fingerprint(payload)
	if dup {
		c.VDups++
		if seq >= vs.delivered {
			c.violate("vchan-phantom-dup", "vchan %q seq %d: suppressed as duplicate but never delivered", name, seq)
		} else if prev, ok := vs.delivFp[seq]; ok && prev != fp {
			c.violate("vchan-payload-divergence", "vchan %q seq %d: duplicate differs from original", name, seq)
		}
		return
	}
	c.VDelivered++
	if term < vs.consTerm {
		c.violate("vchan-stale-delivery", "vchan %q seq %d delivered at stale term %d < adopted %d",
			name, seq, term, vs.consTerm)
	} else if term > vs.consTerm {
		c.violate("vchan-term-skew", "vchan %q seq %d delivered at term %d before the consumer adopted it (at %d)",
			name, seq, term, vs.consTerm)
	}
	if seq != vs.delivered {
		c.violate("vchan-fifo", "vchan %q: delivered seq %d, cursor at %d", name, seq, vs.delivered)
	}
	if _, ok := vs.delivFp[seq]; ok {
		c.violate("vchan-double-delivery", "vchan %q seq %d delivered twice", name, seq)
	}
	if w, ok := vs.written[seq]; ok && w != fp {
		c.violate("vchan-corruption", "vchan %q seq %d: delivered payload differs from written", name, seq)
	}
	vs.delivFp[seq] = fp
	if seq >= vs.delivered {
		vs.delivered = seq + 1
	}
}

// VChanAck checks V4: a cumulative ack covers only delivered
// sequences.
func (c *Checker) VChanAck(v uint64, name string, upTo int) {
	c.VAcked++
	vs := c.vchanState(v)
	if upTo >= vs.delivered {
		c.violate("vchan-acked-but-lost", "vchan %q: ack through %d but cursor is %d", name, upTo, vs.delivered)
	}
	if upTo > vs.ackHigh {
		vs.ackHigh = upTo
	}
}

// VChanTermMint checks V1 at the balancer: terms strictly increase.
func (c *Checker) VChanTermMint(v uint64, name string, term uint32) {
	c.VMints++
	vs := c.vchanState(v)
	if term <= vs.minted {
		c.violate("vchan-term-mint", "vchan %q: minted term %d after %d", name, term, vs.minted)
	}
	vs.minted = term
}

// VChanExpect checks the consumer adopts terms in increasing order
// and never one the balancer has not minted.
func (c *Checker) VChanExpect(v uint64, name string, term uint32, resume int) {
	vs := c.vchanState(v)
	if term <= vs.consTerm {
		c.violate("vchan-expect-regress", "vchan %q: adopted term %d after %d", name, term, vs.consTerm)
	}
	if term > vs.minted {
		c.violate("vchan-unminted-term", "vchan %q: adopted term %d the balancer never minted (last %d)",
			name, term, vs.minted)
	}
	if resume != vs.delivered {
		c.violate("vchan-resume-skew", "vchan %q: term %d adopted with cursor %d, checker saw %d",
			name, term, resume, vs.delivered)
	}
	vs.consTerm = term
}

// VChanReplay checks V3, the cross-term replay window: the retained
// suffix replayed on a new placement starts strictly above the acked
// stable mark and skips nothing undelivered.
func (c *Checker) VChanReplay(v uint64, name string, term uint32, from, to int) {
	c.VReplays++
	vs := c.vchanState(v)
	if from <= vs.ackHigh {
		c.violate("vchan-replay-below-ack", "vchan %q term %d: replay from %d at or below acked %d",
			name, term, from, vs.ackHigh)
	}
	if from > vs.delivered {
		c.violate("vchan-replay-gap", "vchan %q term %d: replay from %d skips undelivered %d..%d",
			name, term, from, vs.delivered, from-1)
	}
	if to < from {
		c.violate("vchan-replay-empty", "vchan %q term %d: replay window [%d,%d] inverted", name, term, from, to)
	}
}

// VChanStale sanity-checks the fence: a refusal must actually be
// below the current term.
func (c *Checker) VChanStale(v uint64, where string, term, cur uint32) {
	c.VStale++
	if term >= cur {
		c.violate("vchan-bad-refusal", "vchan %d: %s refused term %d >= current %d", v, where, term, cur)
	}
}
