package channels_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// buildComm is build with a communication profile applied.
func buildComm(t *testing.T, nodes int, cp core.CommProfile) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: nodes, Seed: 1, Comm: cp})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Property: under the pipelined profile — any window, output depth,
// coalescing on or off, any fragment count — the channel still
// delivers every message exactly once, in per-channel FIFO order, with
// the right size.
func TestWindowedExactlyOnceInOrderProperty(t *testing.T) {
	f := func(sizeRaw uint16, countRaw, windowRaw, depthRaw, coalesceRaw uint8) bool {
		size := int(sizeRaw%5000) + 1
		count := int(countRaw%12) + 1
		cp := core.CommProfile{
			Window:      int(windowRaw%7) + 2, // 2..8
			OutputDepth: int(depthRaw%4) + 1,  // 1..4
			Coalesce:    coalesceRaw%2 == 0,
		}
		sys := buildComm(t, 2, cp)
		var got []int
		sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
			ch := sys.Node(0).Chans.Open(sp, "wprop", objmgr.OpenAny)
			for i := 0; i < count; i++ {
				if err := ch.Write(sp, size, i); err != nil {
					t.Logf("write: %v", err)
					return
				}
			}
		})
		sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
			ch := sys.Node(1).Chans.Open(sp, "wprop", objmgr.OpenAny)
			for i := 0; i < count; i++ {
				m, ok := ch.Read(sp)
				if !ok {
					return
				}
				if m.Size != size {
					t.Logf("size %d != %d", m.Size, size)
					return
				}
				got = append(got, m.Payload.(int))
			}
		})
		if err := sys.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		if len(got) != count {
			t.Logf("got %d of %d (%+v)", len(got), count, cp)
			return false
		}
		for i, v := range got {
			if v != i {
				t.Logf("order broken at %d: %v (%+v)", i, got, cp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedLinkOutageMidTrain: a cube link goes down in the middle
// of a windowed multi-fragment stream and comes back later. Reroutes
// and end-to-end recovery must preserve per-channel FIFO and
// exactly-once delivery.
func TestWindowedLinkOutageMidTrain(t *testing.T) {
	sys := buildComm(t, 16, core.Pipelined())
	w, r := sys.Node(0), sys.Node(8) // different hypercube clusters

	eng := fault.New(sys.K, 1)
	eng.Bind(sys) // resets every machine's ack timeout to the engine's
	w.Chans.SetAckTimeout(2*sim.Millisecond, 20)
	if err := eng.Apply([]fault.Op{
		{At: 1 * sim.Millisecond, Kind: "link-down", Args: []string{"0", "2"}},
		{At: 9 * sim.Millisecond, Kind: "link-up", Args: []string{"0", "2"}},
	}); err != nil {
		t.Fatal(err)
	}

	const msgs, size = 24, 3000 // 3 fragments per message
	var writeErr error
	sys.Spawn(w, "writer", 0, func(sp *kern.Subprocess) {
		ch := w.Chans.Open(sp, "train", objmgr.OpenAny)
		for i := 0; i < msgs; i++ {
			if writeErr = ch.Write(sp, size, i); writeErr != nil {
				return
			}
		}
	})
	var got []int
	sys.Spawn(r, "reader", 0, func(sp *kern.Subprocess) {
		ch := r.Chans.Open(sp, "train", objmgr.OpenAny)
		for i := 0; i < msgs; i++ {
			m, ok := ch.Read(sp)
			if !ok {
				return
			}
			got = append(got, m.Payload.(int))
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if writeErr != nil {
		t.Fatalf("writer failed across the outage: %v", writeErr)
	}
	if len(got) != msgs {
		t.Fatalf("reader got %d of %d", len(got), msgs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO broken at %d: %v", i, got)
		}
	}
	if r.Chans.Delivered != msgs {
		t.Fatalf("exactly-once violated: Delivered=%d, want %d", r.Chans.Delivered, msgs)
	}
}

// TestWindowedPeerCrashInFlightWindow: the receiving node dies with a
// full window of fragment trains in flight, then restarts (a blind
// outage — no death oracle, so the writer keeps retrying). End-to-end
// timeouts replay the unacknowledged writes; the service must account
// every message exactly once.
func TestWindowedPeerCrashInFlightWindow(t *testing.T) {
	sys := buildComm(t, 2, core.CommProfile{Window: 8, OutputDepth: 4})
	w, r := sys.Node(0), sys.Node(1)
	w.Chans.SetAckTimeout(2*sim.Millisecond, 20)

	sys.K.At(sim.Time(3*sim.Millisecond), func() { r.Kern.Crash() })
	sys.K.At(sim.Time(10*sim.Millisecond), func() { r.Kern.Restart() })

	const msgs, size = 10, 2000
	var writeErr error
	sys.Spawn(w, "writer", 0, func(sp *kern.Subprocess) {
		ch := w.Chans.Open(sp, "cw", objmgr.OpenAny)
		for i := 0; i < msgs; i++ {
			if writeErr = ch.Write(sp, size, i); writeErr != nil {
				return
			}
		}
	})
	drained := 0
	sys.Spawn(r, "reader", 0, func(sp *kern.Subprocess) {
		ch := r.Chans.Open(sp, "cw", objmgr.OpenAny)
		for {
			if _, ok := ch.Read(sp); !ok {
				return
			}
			drained++
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if writeErr != nil {
		t.Fatalf("writer failed across the crash: %v", writeErr)
	}
	if w.Chans.TimeoutRetransmits == 0 {
		t.Fatal("crash with an in-flight window must exercise the end-to-end timeout")
	}
	if r.Chans.Delivered != msgs {
		t.Fatalf("exactly-once violated: Delivered=%d, want %d", r.Chans.Delivered, msgs)
	}
}

// TestWindowedRebindReplaysRetainedWrites: migration replay under a
// write window and multi-fragment messages — a managed, retaining
// writer is rebound to a reincarnated end and replays exactly the
// writes at or above the checkpoint mark, in order.
func TestWindowedRebindReplaysRetainedWrites(t *testing.T) {
	sys := buildComm(t, 3, core.CommProfile{Window: 4})
	w, r1, r2 := sys.Node(0), sys.Node(1), sys.Node(2)
	w.Chans.SetAckTimeout(2*sim.Millisecond, 3)

	const size = 2500 // 3 fragments: replay replays whole trains
	var wch *channels.Channel
	sys.Spawn(w, "writer", 0, func(sp *kern.Subprocess) {
		wch = w.Chans.Open(sp, "mig", objmgr.OpenAny)
		wch.SetManaged(true)
		for i := 0; i < 4; i++ {
			if err := wch.Write(sp, size, fmt.Sprintf("m%d", i)); err != nil {
				t.Errorf("write m%d: %v", i, err)
				return
			}
		}
		sp.SleepFor(10 * sim.Millisecond)
		if err := wch.Write(sp, size, "m4"); err != nil {
			t.Errorf("write m4: %v", err)
		}
	})
	consumed := 0
	sys.Spawn(r1, "reader", 0, func(sp *kern.Subprocess) {
		ch := r1.Chans.Open(sp, "mig", objmgr.OpenAny)
		for i := 0; i < 4; i++ {
			if _, ok := ch.Read(sp); !ok {
				return
			}
			consumed++
		}
	})
	var got []string
	sys.K.At(sim.Time(6*sim.Millisecond), func() {
		if consumed != 4 {
			t.Fatalf("original reader consumed %d, want 4", consumed)
		}
		r1.Kern.Crash()
		w.Chans.ReleaseRetained(wch.ID(), 2)
	})
	sys.K.At(sim.Time(8*sim.Millisecond), func() {
		r2.Chans.Reincarnate(wch.ID(), "mig", w.EP, 0, 2)
		if !w.Chans.Rebind(wch.ID(), r2.EP, 2) {
			t.Fatal("rebind found no channel")
		}
	})
	sys.Spawn(r2, "reader2", 0, func(sp *kern.Subprocess) {
		sp.SleepFor(9 * sim.Millisecond)
		ch := r2.Chans.ByID(wch.ID())
		for i := 0; i < 3; i++ {
			m, ok := ch.Read(sp)
			if !ok {
				t.Error("reincarnated read failed")
				return
			}
			got = append(got, m.Payload.(string))
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "m2" || got[1] != "m3" || got[2] != "m4" {
		t.Fatalf("reincarnated reader got %v, want [m2 m3 m4]", got)
	}
}
