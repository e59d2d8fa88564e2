package channels_test

import (
	"testing"

	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// TestClassicRoundTripAllocBound is the allocation guard for the
// classic message path with tracing off: once warm, a 2-node 64-byte
// Write/Read round trip formats nothing and allocates only what its
// API shapes force — the Envelope boxed into the data and the ack
// message payloads, the wake closures kern.Subprocess.Block returns
// to the blocked writer and reader, and the pending list the ack
// empties to zero capacity.
func TestClassicRoundTripAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	sys := build(t, 2)
	read := 0
	sys.Spawn(sys.Node(0), "writer", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "alloc", objmgr.OpenAny)
		for {
			if err := ch.Write(sp, 64, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sys.Spawn(sys.Node(1), "reader", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "alloc", objmgr.OpenAny)
		for {
			if _, ok := ch.Read(sp); !ok {
				t.Error("read failed")
				return
			}
			read++
		}
	})
	defer sys.Shutdown()
	roundTrip := func() {
		for want := read + 1; read < want; {
			sys.RunFor(10 * sim.Microsecond)
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	const bound = 5
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > bound {
		t.Fatalf("warm classic round trip allocates %v/op, want at most %d", allocs, bound)
	}
}
