package objmgr

import (
	"errors"
	"fmt"
	"testing"

	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// rig builds n nodes on one cluster, each with its own manager (the
// VORX placement), and the object manager over them.
func rig(t *testing.T, n int) (*sim.Kernel, []*netif.IF, *Manager) {
	t.Helper()
	k := sim.NewKernel(1)
	costs := m68k.DefaultCosts()
	tp, err := topo.SingleCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	ic := hpc.New(k, costs, tp)
	ifs := make([]*netif.IF, n)
	eps := make([]topo.EndpointID, n)
	for i := range ifs {
		ifs[i] = netif.Attach(kern.NewNode(k, costs, fmt.Sprintf("node%d", i)), ic, topo.EndpointID(i))
		eps[i] = topo.EndpointID(i)
	}
	return k, ifs, New(ifs, eps)
}

// TestTokenReusedAfterReply: two opens in a row by each of two
// subprocesses use only two reply records. The second open of each
// takes a record the first freed once it had read its reply, with the
// token moved on by 1<<32.
func TestTokenReusedAfterReply(t *testing.T) {
	k, ifs, m := rig(t, 2)
	got := make([][]Pairing, 2)
	for i := range ifs {
		ifs[i].Node().SpawnSubprocess("opener", 0, func(sp *kern.Subprocess) {
			for _, name := range []string{"first", "second"} {
				got[i] = append(got[i], m.Open(sp, ifs[i], name, OpenAny))
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for j := range got[0] {
		if got[0][j].Chan != got[1][j].Chan || got[0][j].Peer != 1 || got[1][j].Peer != 0 {
			t.Fatalf("open %d paired %+v with %+v", j, got[0][j], got[1][j])
		}
	}
	if len(m.waits) != 2 {
		t.Fatalf("%d reply records for 2 concurrent opens, want 2", len(m.waits))
	}
	for i, w := range m.waits {
		if w.tok != uint64(i)|1<<32 || w.wake.Armed() {
			t.Fatalf("record %d holds token %#x (armed %v), want %#x, landed", i, w.tok, w.wake.Armed(), uint64(i)|1<<32)
		}
	}
	if len(m.freeTokens) != 2 {
		t.Fatalf("%d free tokens after every open read its reply, want 2", len(m.freeTokens))
	}
}

// TestStaleReplyWakesNothing: a reply whose token no open holds any
// more and a duplicate of a reply that already landed wake nothing,
// even when the record a stale token names has been reused by an open
// that still waits. The reply for the waiting open's own token then
// wakes it.
func TestStaleReplyWakesNothing(t *testing.T) {
	k, ifs, m := rig(t, 2)
	var lonely Pairing
	done := false
	ifs[0].Node().SpawnSubprocess("a", 0, func(sp *kern.Subprocess) {
		m.Open(sp, ifs[0], "x", OpenAny)
		lonely = m.Open(sp, ifs[0], "lonely", OpenAny)
		done = true
	})
	ifs[1].Node().SpawnSubprocess("b", 0, func(sp *kern.Subprocess) {
		m.Open(sp, ifs[1], "x", OpenAny)
	})
	defer k.Shutdown()
	var dl *sim.DeadlockError
	if err := k.Run(); !errors.As(err, &dl) || len(dl.Procs) != 1 || dl.Procs[0].Reason != "open lonely" {
		t.Fatalf("Run = %v, want node0/a deadlocked in its open of lonely", err)
	}
	waiting := -1
	for i, w := range m.waits {
		if w.wake.Armed() {
			waiting = i
		}
	}
	if waiting < 0 || m.waits[waiting].tok>>32 != 1 {
		t.Fatalf("reply records %+v: want one reused record armed", m.waits)
	}
	own := m.waits[waiting].tok
	other := m.waits[1-waiting].tok
	deliver := func(tok uint64, ch uint64) {
		k.After(0, func() {
			m.handleReply(&hpc.Message{Payload: &openRep{token: tok, pairing: Pairing{Chan: ch, Peer: 1}}})
		})
	}
	deliver(own-1<<32, 7) // the reused record's earlier holder
	deliver(other, 8)     // a duplicate of a reply that landed
	deliver(own+1<<32, 9) // a later holder that does not exist yet
	if err := k.Run(); !errors.As(err, &dl) || len(dl.Procs) != 1 || done {
		t.Fatalf("after stale replies: Run = %v, done = %v; want the open still waiting", err, done)
	}
	if p := m.waits[waiting].pairing; p != (Pairing{}) {
		t.Fatalf("a stale reply stored %+v in the waiting record", p)
	}
	deliver(own, 11)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || lonely != (Pairing{Chan: 11, Peer: 1}) {
		t.Fatalf("own reply: done = %v, pairing %+v", done, lonely)
	}
}
