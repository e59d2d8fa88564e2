package channels_test

import (
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// TestClassicRoundTripAllocBound is the allocation guard for the
// classic message path with tracing off: once warm, a 2-node 64-byte
// Write/Read round trip allocates nothing. The data fragment and the
// ack travel as netif payloads themselves, the blocked writer and
// reader wait on kern.Waker values, and the pending list keeps its
// storage when the ack empties it.
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
	const bound = 0
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > bound {
		t.Fatalf("warm classic round trip allocates %v/op, want at most %d", allocs, bound)
	}
}

// TestBusyResumeZeroAlloc: the reader has one side buffer, which its
// previous message still holds whenever the next one arrives, so every
// write is refused busy, parks as a starve record and is retransmitted
// when a read frees the buffer and resumes it. Once warm, such a write
// allocates nothing: the busy and resume notices travel on ackMsg
// shells, like acks.
func TestBusyResumeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	busyResume(t, core.Classic(), 64, 1)
}

// TestPipelinedStreamZeroAlloc is the same guard for the windowed
// fragment path: on the pipelined stack (a write window, K-deep ports
// and coalesced receive interrupts) each 6,000 B write travels as 6
// fragments, is refused busy and is resumed. Once warm such a write
// allocates nothing: fragments, acks and notices come from the shard's
// shell lists.
func TestPipelinedStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	busyResume(t, core.Pipelined(), 6000, 6)
}

// busyResume streams size-byte writes of frags fragments each into a
// reader with one side buffer that computes for 1 ms before each read,
// so every write arrives to find no reader and a full side buffer. It
// fails unless each of 201 warm reads sees one write refused busy and
// its fragments resumed, with nothing allocated.
func busyResume(t *testing.T, cp core.CommProfile, size, frags int) {
	t.Helper()
	sys := buildComm(t, 2, cp)
	rx := sys.Node(1).Chans
	rx.SetSideBuffers(1)
	read := 0
	sys.Spawn(sys.Node(0), "writer", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "busy", objmgr.OpenAny)
		for {
			if err := ch.Write(sp, size, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sys.Spawn(sys.Node(1), "reader", 0, func(sp *kern.Subprocess) {
		ch := rx.Open(sp, "busy", objmgr.OpenAny)
		for {
			// Busy on the CPU rather than blocked in Read, so each
			// arrival finds no reader and a full side buffer.
			sp.Compute(sim.Millisecond)
			if _, ok := ch.Read(sp); !ok {
				t.Error("read failed")
				return
			}
			read++
		}
	})
	defer sys.Shutdown()
	cycle := func() {
		for want := read + 1; read < want; {
			sys.RunFor(10 * sim.Microsecond)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	busies, retransmits := rx.Busies, rx.Retransmits
	allocs := testing.AllocsPerRun(200, cycle)
	// AllocsPerRun adds one warm-up call.
	if got := rx.Busies - busies; got != 201 {
		t.Fatalf("%d busy refusals in 201 reads; the scenario no longer refuses every write", got)
	}
	if got := rx.Retransmits - retransmits; got != 201*frags {
		t.Fatalf("%d fragments retransmitted on resume in 201 reads, want %d", got, 201*frags)
	}
	if allocs != 0 {
		t.Fatalf("warm busy-refused, resumed write allocates %v/op, want 0", allocs)
	}
}

// TestPairedOpenAllocBound is the allocation guard for channel opens:
// once warm, two subprocesses on a 2-node system that keep opening one
// name allocate only the two new Channel records per paired open. The
// reply waits are token-indexed records reused once their reply lands,
// the open request and reply travel as pooled shells, the manager
// reuses emptied name queues, and the park reasons are joined only
// when read.
func TestPairedOpenAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	sys := build(t, 2)
	opened := 0
	for i := 0; i < 2; i++ {
		svc := sys.Node(i).Chans
		sys.Spawn(sys.Node(i), "opener", 0, func(sp *kern.Subprocess) {
			for {
				svc.Open(sp, "again", objmgr.OpenAny)
				opened++
			}
		})
	}
	defer sys.Shutdown()
	pair := func() {
		for want := opened + 2; opened < want; {
			sys.RunFor(10 * sim.Microsecond)
		}
	}
	for i := 0; i < 64; i++ {
		pair()
	}
	if allocs := testing.AllocsPerRun(200, pair); allocs != 2 {
		t.Fatalf("warm paired open allocates %v/op, want 2 (the two Channel records)", allocs)
	}
}
