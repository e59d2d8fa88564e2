package snet

import (
	"fmt"
	"testing"
	"testing/quick"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
)

func newNet(n int) (*sim.Kernel, *Network) {
	k := sim.NewKernel(1)
	return k, NewNetwork(k, m68k.DefaultCosts(), n)
}

func TestBasicDelivery(t *testing.T) {
	k, nw := newNet(2)
	var got []Message
	nw.Station(1).SetDeliver(func(m Message) { got = append(got, m) })
	nw.Station(1).StartKernel()
	k.Spawn("s", func(p *sim.Proc) {
		if r := nw.Station(0).Send(p, 1, 200, "x"); r != Delivered {
			t.Errorf("result = %v", r)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Size != 200 || got[0].Src != 0 || got[0].Payload != "x" {
		t.Fatalf("got %+v", got)
	}
	if nw.Stats().Delivered != 1 || nw.Stats().DataBytes != 200 {
		t.Fatalf("stats = %+v", nw.Stats())
	}
}

func TestFifoOverflowLeavesFragment(t *testing.T) {
	// Paper §2: "the fifo retained the portion of the message that
	// was received up to the time of the overflow. The communications
	// software in the receiving processor had to read and discard
	// this initial portion."
	k, nw := newNet(2)
	st := nw.Station(1) // no drain kernel: FIFO only fills
	k.Spawn("s", func(p *sim.Proc) {
		if r := nw.Station(0).Send(p, 1, 1500, nil); r != Delivered {
			t.Errorf("first send = %v", r)
		}
		if r := nw.Station(0).Send(p, 1, 1000, nil); r != FifoFull {
			t.Errorf("overflow send = %v, want fifo-full", r)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1500 data + 548 fragment fills the 2048-byte FIFO exactly.
	if st.fifoUsed != 2048 {
		t.Fatalf("fifo used = %d, want 2048", st.fifoUsed)
	}
	if nw.Stats().JunkBytes != 548 || nw.Stats().Rejected != 1 {
		t.Fatalf("stats = %+v", nw.Stats())
	}
}

func TestJunkIsReadAndDiscarded(t *testing.T) {
	k, nw := newNet(2)
	st := nw.Station(1)
	delivered := 0
	st.SetDeliver(func(m Message) { delivered++ })
	k.Spawn("s", func(p *sim.Proc) {
		nw.Station(0).Send(p, 1, 1500, nil)
		nw.Station(0).Send(p, 1, 1000, nil) // rejected, leaves 548 junk
		st.StartKernel()                    // drain only now
		p.Sleep(sim.Milliseconds(5))
		if st.fifoUsed != 0 {
			t.Errorf("fifo not drained: %d", st.fifoUsed)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (junk must not be delivered)", delivered)
	}
	if st.DiscardedJunk != 1 {
		t.Fatalf("junk discarded = %d", st.DiscardedJunk)
	}
}

func TestBusSerializes(t *testing.T) {
	k, nw := newNet(3)
	nw.Station(2).StartKernel()
	var ends []sim.Time
	for s := 0; s < 2; s++ {
		s := s
		k.Spawn(fmt.Sprintf("s%d", s), func(p *sim.Proc) {
			nw.Station(s).Send(p, 2, 1000, nil)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Each transfer holds the bus for 5 + 100 = 105 µs; the second
	// must finish a full transfer after the first.
	if len(ends) != 2 {
		t.Fatal("missing senders")
	}
	if ends[1].Sub(ends[0]) != sim.Microseconds(105) {
		t.Fatalf("bus overlap: ends %v", ends)
	}
}

func TestTwelve150ByteBurstFits(t *testing.T) {
	// Paper §2: "12 processors could each send a 150 byte message to
	// a single processor without overflowing its fifo."
	k, nw := newNet(13)
	delivered := 0
	nw.Station(0).SetDeliver(func(m Message) { delivered++ })
	nw.Station(0).StartKernel()
	rejects := 0
	for s := 1; s <= 12; s++ {
		s := s
		k.Spawn(fmt.Sprintf("s%d", s), func(p *sim.Proc) {
			if nw.Station(s).Send(p, 0, 150, nil) == FifoFull {
				rejects++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rejects != 0 {
		t.Fatalf("rejects = %d, want 0", rejects)
	}
	if delivered != 12 {
		t.Fatalf("delivered = %d, want 12", delivered)
	}
}

func TestThirteenLongMessagesOverflow(t *testing.T) {
	// The complement: a simultaneous burst that exceeds 2048 bytes
	// must reject at least one message.
	k, nw := newNet(13)
	nw.Station(0).StartKernel()
	rejects := 0
	for s := 1; s <= 12; s++ {
		s := s
		k.Spawn(fmt.Sprintf("s%d", s), func(p *sim.Proc) {
			if nw.Station(s).Send(p, 0, 600, nil) == FifoFull {
				rejects++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rejects == 0 {
		t.Fatal("expected at least one fifo-full result")
	}
}

func TestSendValidation(t *testing.T) {
	k, nw := newNet(2)
	k.Spawn("s", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("bad destination should panic")
			}
		}()
		nw.Station(0).Send(p, 9, 10, nil)
	})
	defer func() { recover() }()
	_ = k.Run()
}

func TestStartKernelIdempotent(t *testing.T) {
	k, nw := newNet(2)
	st := nw.Station(1)
	st.StartKernel()
	st.StartKernel()
	delivered := 0
	st.SetDeliver(func(m Message) { delivered++ })
	k.Spawn("s", func(p *sim.Proc) { nw.Station(0).Send(p, 1, 100, nil) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d (double drain?)", delivered)
	}
}

// Property: bus accounting conserves messages — Delivered + Rejected
// equals Transfers, and FIFO occupancy never exceeds capacity or goes
// negative, across arbitrary burst patterns.
func TestSNETConservationProperty(t *testing.T) {
	f := func(sendersRaw, msgsRaw uint8, sizeRaw uint16) bool {
		senders := int(sendersRaw%6) + 1
		msgs := int(msgsRaw%6) + 1
		size := int(sizeRaw%1200) + 1
		k := sim.NewKernel(3)
		nw := NewNetwork(k, m68k.DefaultCosts(), senders+1)
		nw.Station(0).StartKernel()
		violated := false
		check := func() {
			st := nw.Station(0)
			if st.fifoUsed < 0 || st.fifoUsed > 2048 {
				violated = true
			}
		}
		for s := 1; s <= senders; s++ {
			s := s
			k.Spawn(fmt.Sprintf("s%d", s), func(p *sim.Proc) {
				for m := 0; m < msgs; m++ {
					nw.Station(s).Send(p, 0, size, nil)
					check()
				}
			})
		}
		k.RunFor(sim.Seconds(2))
		k.Shutdown()
		st := nw.Stats()
		if violated {
			return false
		}
		return st.Delivered+st.Rejected == st.Transfers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
