package netif_test

import (
	"testing"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
)

// TestSendAsyncRetryZeroAlloc: an asynchronous send the full output
// section refuses waits in a recycled retry record and goes out from
// the room-available interrupt; once warm, neither the refusal nor the
// retry allocates.
func TestSendAsyncRetryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	k, ic, ifs, _ := rig(t)
	handled := 0
	ifs[1].Register("svc", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return sim.Microseconds(10) },
		Handle: func(*hpc.Message) { handled++ },
	})
	refused := 0
	cycle := func() {
		ifs[0].SendAsync(1, "svc", 64, nil, nil)
		if !ic.OutputFree(0) {
			refused++ // the next send must wait for room
		}
		ifs[0].SendAsync(1, "svc", 64, nil, nil)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if refused != 64 || handled != 128 {
		t.Fatalf("refused %d of 64 second sends, handled %d of 128", refused, handled)
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("warm refused SendAsync allocates %v/op, want 0", allocs)
	}
}
