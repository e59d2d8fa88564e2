package channels_test

import (
	"fmt"
	"testing"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// TestSideBufferAccountingAfterPeerCrash audits the side-buffer pool
// across a peer crash with in-flight (multi-fragment) messages: once
// the survivor's reader drains what was delivered before the crash,
// every side buffer must be back in the pool — partially assembled
// fragments and starve records for the dead peer must not pin any.
func TestSideBufferAccountingAfterPeerCrash(t *testing.T) {
	sys := build(t, 2)
	w, r := sys.Node(0), sys.Node(1)
	initial := r.Chans.SideBuffersFree()

	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	if err := eng.Apply([]fault.Op{{At: 5 * sim.Millisecond, Kind: "crash", Args: []string{"node0"}}}); err != nil {
		t.Fatal(err)
	}

	sys.Spawn(w, "writer", 0, func(sp *kern.Subprocess) {
		ch := w.Chans.Open(sp, "pa", objmgr.OpenAny)
		for i := 0; i < 8; i++ {
			// 2500 bytes = 3 fragments, so the crash lands with
			// assembly state in flight on the receiver.
			if err := ch.Write(sp, 2500, fmt.Sprintf("m%d", i)); err != nil {
				return // killed mid-stream, as intended
			}
		}
	})
	drained := 0
	sys.Spawn(r, "reader", 0, func(sp *kern.Subprocess) {
		ch := r.Chans.Open(sp, "pa", objmgr.OpenAny)
		sp.SleepFor(20 * sim.Millisecond) // crash + detection happen first
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
	if drained == 0 {
		t.Fatal("nothing delivered before the crash; the scenario is vacuous")
	}
	if free := r.Chans.SideBuffersFree(); free != initial {
		t.Fatalf("SideBuffersFree = %d after drain, want initial %d (leak of %d)",
			free, initial, initial-free)
	}
}

// TestStarvedResumeSkipsDeadPeer: when a starved sender's node dies,
// its starve record must be purged — otherwise the next freed side
// buffer is spent asking the dead node to retransmit while a live
// starved channel waits forever. The live channel's message must be
// side-buffered (resumed by the freed buffer, not rescued by its own
// blocked reader) before the reader ever touches that channel.
func TestStarvedResumeSkipsDeadPeer(t *testing.T) {
	sys := build(t, 4)
	w1, w2, w3, r := sys.Node(0), sys.Node(1), sys.Node(2), sys.Node(3)
	r.Chans.SetSideBuffers(1)

	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	// w2 dies; detection at +2ms.
	if err := eng.Apply([]fault.Op{{At: 2 * sim.Millisecond, Kind: "crash", Args: []string{"node1"}}}); err != nil {
		t.Fatal(err)
	}

	errs := make([]error, 3)
	write := func(m *core.Machine, idx int, name string, delay sim.Duration) {
		sys.Spawn(m, "writer-"+name, 0, func(sp *kern.Subprocess) {
			ch := m.Chans.Open(sp, name, objmgr.OpenAny)
			sp.SleepFor(delay)
			errs[idx] = ch.Write(sp, 256, name)
		})
	}
	write(w1, 0, "pa", 0)                   // takes the only side buffer
	write(w2, 1, "pb", 200*sim.Microsecond) // busy-discarded, starved, then dies
	write(w3, 2, "pc", 400*sim.Microsecond) // busy-discarded, starved, must survive

	var got []string
	buffered := -1
	sys.Spawn(r, "reader", 0, func(sp *kern.Subprocess) {
		cha := r.Chans.Open(sp, "pa", objmgr.OpenAny)
		chb := r.Chans.Open(sp, "pb", objmgr.OpenAny)
		chc := r.Chans.Open(sp, "pc", objmgr.OpenAny)
		_ = chb
		sp.SleepFor(10 * sim.Millisecond) // let the crash be detected
		m, ok := cha.Read(sp)             // frees the buffer -> resume pc, not dead pb
		if !ok {
			t.Error("pa read failed")
			return
		}
		got = append(got, m.Payload.(string))
		sp.SleepFor(5 * sim.Millisecond) // pc's retransmission lands here
		for _, es := range r.Chans.Snapshot() {
			if es.Name == "pc" {
				buffered = es.Buffered
			}
		}
		if m, ok := chc.Read(sp); ok {
			got = append(got, m.Payload.(string))
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if buffered != 1 {
		t.Fatalf("pc had %d side-buffered messages before its read; the freed buffer's resume went to the dead peer", buffered)
	}
	if len(got) != 2 || got[0] != "pa" || got[1] != "pc" {
		t.Fatalf("reader got %v, want [pa pc]", got)
	}
	if free := r.Chans.SideBuffersFree(); free != 1 {
		t.Fatalf("SideBuffersFree = %d, want 1", free)
	}
	if errs[2] != nil {
		t.Fatalf("live starved writer failed: %v", errs[2])
	}
}

// TestMuxReadPeerDeathMidRead: one of two muxed channels' peers dies
// while the reader is blocked in MuxRead. The mux must wake, identify
// the dead channel with ok=false, and leave the surviving channel
// usable for the next mux.
func TestMuxReadPeerDeathMidRead(t *testing.T) {
	sys := build(t, 3)
	w1, w2, r := sys.Node(0), sys.Node(1), sys.Node(2)

	sys.Spawn(w1, "writer-a", 0, func(sp *kern.Subprocess) {
		w1.Chans.Open(sp, "pa", objmgr.OpenAny)
		// Never writes: its node dies below.
	})
	sys.Spawn(w2, "writer-b", 0, func(sp *kern.Subprocess) {
		ch := w2.Chans.Open(sp, "pb", objmgr.OpenAny)
		sp.SleepFor(8 * sim.Millisecond)
		if err := ch.Write(sp, 128, "survivor"); err != nil {
			t.Error(err)
		}
	})

	var firstCh, secondCh string
	firstOK, secondOK := true, false
	var payload string
	sys.Spawn(r, "reader", 0, func(sp *kern.Subprocess) {
		cha := r.Chans.Open(sp, "pa", objmgr.OpenAny)
		chb := r.Chans.Open(sp, "pb", objmgr.OpenAny)
		ch, _, ok := channels.MuxRead(sp, cha, chb)
		firstOK = ok
		if ch != nil {
			firstCh = ch.Name()
		}
		// Drop the dead channel, mux again on the survivor.
		ch, m, ok := channels.MuxRead(sp, chb)
		secondOK = ok
		if ch != nil {
			secondCh = ch.Name()
			payload, _ = m.Payload.(string)
		}
	})

	sys.K.At(sim.Time(4*sim.Millisecond), func() {
		w1.Kern.Crash()
		r.Chans.PeerDown(w1.EP)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if firstOK {
		t.Fatal("first mux must fail when a muxed peer dies")
	}
	if firstCh != "pa" {
		t.Fatalf("first mux identified %q as failed, want pa", firstCh)
	}
	if !secondOK || secondCh != "pb" || payload != "survivor" {
		t.Fatalf("surviving channel unusable after mux failure: ok=%v ch=%q payload=%q",
			secondOK, secondCh, payload)
	}
}

// TestRebindReplaysRetainedWrites exercises the migration primitives
// directly at the channels layer: a managed, retaining writer end is
// rebound to a reincarnated peer end, and exactly the writes at or
// above the peer's checkpoint mark are replayed and delivered.
func TestRebindReplaysRetainedWrites(t *testing.T) {
	sys := build(t, 3)
	w, r1, r2 := sys.Node(0), sys.Node(1), sys.Node(2)
	w.Chans.SetAckTimeout(2*sim.Millisecond, 3)

	var wch *channels.Channel
	sys.Spawn(w, "writer", 0, func(sp *kern.Subprocess) {
		wch = w.Chans.Open(sp, "pipe", objmgr.OpenAny)
		wch.SetManaged(true) // retain acknowledged writes
		for i := 0; i < 4; i++ {
			if err := wch.Write(sp, 128, fmt.Sprintf("m%d", i)); err != nil {
				t.Errorf("write m%d: %v", i, err)
				return
			}
		}
		// m4 is written after the original reader died: it must ride
		// the rebind to the reincarnated end without an error.
		sp.SleepFor(10 * sim.Millisecond)
		if err := wch.Write(sp, 128, "m4"); err != nil {
			t.Errorf("write m4: %v", err)
		}
	})
	consumed := 0
	sys.Spawn(r1, "reader", 0, func(sp *kern.Subprocess) {
		ch := r1.Chans.Open(sp, "pipe", objmgr.OpenAny)
		for i := 0; i < 4; i++ {
			if _, ok := ch.Read(sp); !ok {
				return
			}
			consumed++
		}
	})

	// The "checkpoint" captured the reader after 2 messages; it dies
	// after consuming 4. The reincarnated end restarts at recvSeq 2 and
	// the rebind replays retained m2, m3 (m0, m1 were released as
	// checkpoint-stable) plus pending m4.
	var got []string
	sys.K.At(sim.Time(6*sim.Millisecond), func() {
		if consumed != 4 {
			t.Fatalf("original reader consumed %d, want 4", consumed)
		}
		r1.Kern.Crash()
		w.Chans.ReleaseRetained(wch.ID(), 2)
		if n := wch.RetainedWrites(); n != 2 {
			t.Fatalf("RetainedWrites = %d after release, want 2", n)
		}
	})
	sys.K.At(sim.Time(8*sim.Millisecond), func() {
		r2.Chans.Reincarnate(wch.ID(), "pipe", w.EP, 0, 2)
		if !w.Chans.Rebind(wch.ID(), r2.EP, 2) {
			t.Fatal("rebind found no channel")
		}
	})
	sys.Spawn(r2, "reader2", 0, func(sp *kern.Subprocess) {
		sp.SleepFor(9 * sim.Millisecond) // wait for the reincarnation
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
