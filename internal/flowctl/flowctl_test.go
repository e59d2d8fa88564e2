package flowctl

import (
	"fmt"
	"testing"

	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
)

// runManyToOne has nSenders stations stream msgs messages of size bytes
// each at station 0 using the given strategy, with the run bounded by
// horizon. It returns the number delivered and the finish time.
func runManyToOne(t *testing.T, strat func(k *sim.Kernel, nw *snet.Network) Strategy,
	nSenders, msgs, size int, horizon sim.Duration) (delivered int, elapsed sim.Time) {
	t.Helper()
	k := sim.NewKernel(7)
	nw := snet.NewNetwork(k, m68k.DefaultCosts(), nSenders+1)
	s := strat(k, nw)
	if _, isRes := s.(*Reservation); !isRes {
		nw.Station(0).SetDeliver(func(m snet.Message) { delivered++ })
		nw.Station(0).StartKernel()
	} else {
		s.(*Reservation).SetDeliver(0, func(m snet.Message) { delivered++ })
	}
	var last sim.Time
	for i := 1; i <= nSenders; i++ {
		i := i
		k.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			for j := 0; j < msgs; j++ {
				s.Send(p, nw.Station(i), 0, size, nil)
			}
			last = p.Now()
		})
	}
	k.RunFor(horizon)
	k.Shutdown()
	return delivered, last
}

func TestSpinRetryLockoutOnLongMessages(t *testing.T) {
	// Paper §2: with several processors continuously resending long
	// messages, "some of the messages were never received" — the
	// receiver cannot free room for an entire message before the next
	// arrives. Expect essentially no deliveries after the initial
	// FIFO fill.
	delivered, _ := runManyToOne(t,
		func(k *sim.Kernel, nw *snet.Network) Strategy { return &SpinRetry{} },
		6, 50, 1000, sim.Seconds(1))
	// 6*50 = 300 offered; the first two fit in the 2048-byte FIFO,
	// a few more may squeak through at startup, then lockout.
	if delivered > 10 {
		t.Fatalf("delivered = %d; lockout should stall many-to-one spin retry", delivered)
	}
}

func TestSpinRetryFineForShortBursts(t *testing.T) {
	// 12 senders × 150 bytes — the Meglos workaround. Everything
	// arrives promptly with plain spin retry.
	delivered, _ := runManyToOne(t,
		func(k *sim.Kernel, nw *snet.Network) Strategy { return &SpinRetry{} },
		12, 1, 150, sim.Seconds(1))
	if delivered != 12 {
		t.Fatalf("delivered = %d, want 12", delivered)
	}
}

func TestRandomBackoffBreaksLockoutButSlowly(t *testing.T) {
	// Backoff must make progress where spin retry livelocks...
	const horizon = 4 * 1000 // ms
	deliveredBackoff, lastB := runManyToOne(t,
		func(k *sim.Kernel, nw *snet.Network) Strategy {
			return &RandomBackoff{Max: sim.Milliseconds(3)}
		},
		6, 10, 1000, sim.Seconds(4))
	if deliveredBackoff != 60 {
		t.Fatalf("backoff delivered = %d, want all 60", deliveredBackoff)
	}
	// ...but slowly: effective per-message time sits far above the
	// ~105 µs an uncontended bus transfer takes, because retries pace
	// at the timeout rate (the benchmark harness reports the exact
	// ratio for experiment E6).
	perMsg := lastB.Sub(0).Microseconds() / 60
	if perMsg < 500 {
		t.Fatalf("backoff per-message time %.0f µs — too fast to be timeout-dominated", perMsg)
	}
	_ = horizon
}

func TestReservationEliminatesOverflow(t *testing.T) {
	k := sim.NewKernel(9)
	nw := snet.NewNetwork(k, m68k.DefaultCosts(), 7)
	res := NewReservation(k, nw)
	delivered := 0
	res.SetDeliver(0, func(m snet.Message) { delivered++ })
	rejectedBefore := nw.Stats().Rejected
	for i := 1; i <= 6; i++ {
		i := i
		k.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				res.Send(p, nw.Station(i), 0, 1000, nil)
			}
		})
	}
	k.RunFor(sim.Seconds(5))
	k.Shutdown()
	if delivered != 60 {
		t.Fatalf("delivered = %d, want 60", delivered)
	}
	if nw.Stats().Rejected != rejectedBefore {
		t.Fatalf("reservation produced %d rejects; overflow should be impossible",
			nw.Stats().Rejected-rejectedBefore)
	}
}

func TestReservationAddsLatencyToUncontendedSends(t *testing.T) {
	// Paper §2 rejected reservation because "the extra software and
	// communications overhead would increase latency for all
	// messages". Compare one uncontended 1000-byte send under spin
	// retry (= raw transfer) vs reservation.
	measure := func(strat func(k *sim.Kernel, nw *snet.Network) Strategy) sim.Time {
		k := sim.NewKernel(3)
		nw := snet.NewNetwork(k, m68k.DefaultCosts(), 2)
		s := strat(k, nw)
		var arrived sim.Time
		if res, ok := s.(*Reservation); ok {
			res.SetDeliver(0, func(m snet.Message) { arrived = k.Now() })
		} else {
			nw.Station(0).SetDeliver(func(m snet.Message) { arrived = k.Now() })
			nw.Station(0).StartKernel()
		}
		k.Spawn("s", func(p *sim.Proc) { s.Send(p, nw.Station(1), 0, 1000, nil) })
		k.RunFor(sim.Seconds(1))
		k.Shutdown()
		return arrived
	}
	plain := measure(func(k *sim.Kernel, nw *snet.Network) Strategy { return &SpinRetry{} })
	reserved := measure(func(k *sim.Kernel, nw *snet.Network) Strategy { return NewReservation(k, nw) })
	if reserved <= plain {
		t.Fatalf("reservation latency %v not above plain %v", reserved, plain)
	}
	if reserved < plain+sim.Time(sim.Microseconds(100)) {
		t.Fatalf("reservation overhead suspiciously small: %v vs %v", reserved, plain)
	}
}

func TestStrategyNames(t *testing.T) {
	if (&SpinRetry{}).Name() != "spin-retry" {
		t.Error("spin name")
	}
	if (&RandomBackoff{}).Name() != "random-backoff" {
		t.Error("backoff name")
	}
	k := sim.NewKernel(1)
	nw := snet.NewNetwork(k, m68k.DefaultCosts(), 1)
	if NewReservation(k, nw).Name() != "reservation" {
		t.Error("reservation name")
	}
}
