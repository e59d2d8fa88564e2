package verify_test

import (
	"fmt"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vchan"
	"hpcvorx/internal/verify"
)

// The checker is the vchan fabric's protocol observer too.
var _ vchan.Verifier = (*verify.Checker)(nil)

// TestStrictOffAllowsDup: an acked write whose frame arrives again is
// suppressed and re-acked by the receiver (dup=true). Duplicates are
// legal under faults, so the checker counts it and flags nothing.
func TestStrictOffAllowsDup(t *testing.T) {
	c := newChecker()
	c.ChanWrite(chID, "pipe", 3, 1, 0, 64, "x")
	c.ChanDeliver(chID, "pipe", 3, 1, 0, "x", false)
	c.ChanAck(chID, 3, 0)
	c.ChanDeliver(chID, "pipe", 3, 1, 0, "x", true)
	if !c.Ok() {
		t.Fatalf("checker flagged a legitimate dup: %v", c.Violations())
	}
	if c.Dups != 1 {
		t.Fatalf("Dups = %d, want 1", c.Dups)
	}
}

// TestStrictCleanRun: a full fault-free simulation with the checker
// attached to both layers stays silent and sees no duplicate frame: with
// no faults injected there is no legitimate source of duplicates.
func TestStrictCleanRun(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fab := vchan.Enable(sys, vchan.Config{BrokerCount: 2})
	type pair struct{ p, c int }
	pairs := []pair{{0, 1}, {2, 3}, {4, 5}}
	for i, pr := range pairs {
		fab.Declare(fmt.Sprintf("t%d", i), sys.Node(pr.p), sys.Node(pr.c))
	}
	chk := verify.AttachAll(sys, fab)
	fab.Start()
	const msgs = 25
	for i, pr := range pairs {
		name := fmt.Sprintf("t%d", i)
		prod, cons := sys.Node(pr.p), sys.Node(pr.c)
		sys.Spawn(prod, "w/"+name, 1, func(sp *kern.Subprocess) {
			w := fab.On(prod).OpenWriter(sp, name)
			for k := 0; k < msgs; k++ {
				if err := w.Write(sp, 64, k); err != nil {
					return
				}
				sp.SleepFor(40 * sim.Microsecond)
			}
		})
		sys.Spawn(cons, "r/"+name, 1, func(sp *kern.Subprocess) {
			r := fab.On(cons).OpenReader(sp, name)
			for k := 0; k < msgs; k++ {
				if _, err := r.Read(sp); err != nil {
					return
				}
			}
		})
	}
	sys.RunFor(60 * sim.Millisecond)
	if !chk.Ok() {
		t.Fatalf("checker flagged a clean run:\n%v", chk.Violations())
	}
	if chk.Dups != 0 || chk.VDups != 0 {
		t.Fatalf("clean run delivered duplicates: %d channel, %d vchannel", chk.Dups, chk.VDups)
	}
	if chk.VDelivered != msgs*len(pairs) {
		t.Fatalf("VDelivered = %d, want %d", chk.VDelivered, msgs*len(pairs))
	}
}

// TestVChanInvariantRules drives the vchan hooks directly through
// every violation branch.
func TestVChanInvariantRules(t *testing.T) {
	t.Run("stale-delivery", func(t *testing.T) {
		c := newChecker()
		c.VChanTermMint(9, "t", 1)
		c.VChanExpect(9, "t", 1, 0)
		c.VChanTermMint(9, "t", 2)
		c.VChanExpect(9, "t", 2, 0)
		c.VChanWrite(9, "t", 0, 8, "x", 1)
		c.VChanDeliver(9, "t", 0, "x", 1, false) // term 1 after adopting 2
		wantRules(t, c, "vchan-stale-delivery")
	})
	t.Run("term-mint-regress", func(t *testing.T) {
		c := newChecker()
		c.VChanTermMint(9, "t", 2)
		c.VChanTermMint(9, "t", 2)
		wantRules(t, c, "vchan-term-mint")
	})
	t.Run("fifo-and-double", func(t *testing.T) {
		c := newChecker()
		c.VChanTermMint(9, "t", 1)
		c.VChanExpect(9, "t", 1, 0)
		c.VChanWrite(9, "t", 0, 8, "a", 1)
		c.VChanWrite(9, "t", 1, 8, "b", 1)
		c.VChanDeliver(9, "t", 1, "b", 1, false) // skips seq 0
		wantRules(t, c, "vchan-fifo")
	})
	t.Run("replay-below-ack", func(t *testing.T) {
		c := newChecker()
		c.VChanTermMint(9, "t", 1)
		c.VChanExpect(9, "t", 1, 0)
		c.VChanWrite(9, "t", 0, 8, "a", 1)
		c.VChanDeliver(9, "t", 0, "a", 1, false)
		c.VChanAck(9, "t", 0)
		c.VChanTermMint(9, "t", 2)
		c.VChanReplay(9, "t", 2, 0, 0) // replays the acked seq 0
		wantRules(t, c, "vchan-replay-below-ack")
	})
	t.Run("replay-gap", func(t *testing.T) {
		c := newChecker()
		c.VChanTermMint(9, "t", 1)
		c.VChanExpect(9, "t", 1, 0)
		c.VChanWrite(9, "t", 0, 8, "a", 1)
		c.VChanTermMint(9, "t", 2)
		c.VChanReplay(9, "t", 2, 1, 1) // skips undelivered seq 0
		wantRules(t, c, "vchan-replay-gap")
	})
	t.Run("acked-but-lost", func(t *testing.T) {
		c := newChecker()
		c.VChanTermMint(9, "t", 1)
		c.VChanExpect(9, "t", 1, 0)
		c.VChanWrite(9, "t", 0, 8, "a", 1)
		c.VChanAck(9, "t", 0) // nothing delivered yet
		wantRules(t, c, "vchan-acked-but-lost")
	})
	t.Run("bad-refusal", func(t *testing.T) {
		c := newChecker()
		c.VChanStale(9, "broker", 3, 3) // refused a current-term frame
		wantRules(t, c, "vchan-bad-refusal")
	})
}
