package vchan

import (
	"fmt"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
)

// testRig builds a system with nProd producer nodes, nCons consumer
// nodes, and enough spare nodes for brokers, declares nv vchannels
// round-robin over the producer/consumer machines, and returns
// everything needed to drive traffic.
type testRig struct {
	sys  *core.System
	fab  *Fabric
	regs []rigChan
}

type rigChan struct {
	name string
	prod *core.Machine
	cons *core.Machine
}

func newRig(t *testing.T, nodes, nv int, cfg Config) *testRig {
	t.Helper()
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: nodes, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fab := Enable(sys, cfg)
	rig := &testRig{sys: sys, fab: fab}
	// Producers on even low nodes, consumers on odd low nodes;
	// brokers auto-picked from the top.
	for i := 0; i < nv; i++ {
		prod := sys.Node((2 * i) % (nodes - cfg.brokerNeed()))
		cons := sys.Node((2*i + 1) % (nodes - cfg.brokerNeed()))
		name := fmt.Sprintf("t%d", i)
		fab.Declare(name, prod, cons)
		rig.regs = append(rig.regs, rigChan{name: name, prod: prod, cons: cons})
	}
	fab.Start()
	return rig
}

func (c Config) brokerNeed() int {
	if len(c.Brokers) > 0 {
		return len(c.Brokers)
	}
	if c.BrokerCount > 0 {
		return c.BrokerCount
	}
	return 2
}

// drive spawns a paced writer and a reader for every vchannel;
// returns a map of received payload sequences filled as the run
// progresses.
func (r *testRig) drive(msgs int, size int, pace sim.Duration) map[string][]int {
	got := make(map[string][]int)
	for _, rc := range r.regs {
		rc := rc
		got[rc.name] = nil
		r.sys.Spawn(rc.prod, "w/"+rc.name, 1, func(sp *kern.Subprocess) {
			w := r.fab.On(rc.prod).OpenWriter(sp, rc.name)
			for i := 0; i < msgs; i++ {
				if err := w.Write(sp, size, i); err != nil {
					return
				}
				if pace > 0 {
					sp.SleepFor(pace)
				}
			}
		})
		r.sys.Spawn(rc.cons, "r/"+rc.name, 1, func(sp *kern.Subprocess) {
			rd := r.fab.On(rc.cons).OpenReader(sp, rc.name)
			for i := 0; i < msgs; i++ {
				m, err := rd.Read(sp)
				if err != nil {
					return
				}
				got[rc.name] = append(got[rc.name], m.Payload.(int))
			}
		})
	}
	return got
}

func checkFIFO(t *testing.T, got map[string][]int, msgs int) {
	t.Helper()
	for name, seqs := range got {
		if len(seqs) != msgs {
			t.Errorf("%s: delivered %d of %d", name, len(seqs), msgs)
			continue
		}
		for i, v := range seqs {
			if v != i {
				t.Errorf("%s: position %d got payload %d", name, i, v)
				break
			}
		}
	}
}

func TestBasicFIFOExactlyOnce(t *testing.T) {
	rig := newRig(t, 8, 4, Config{})
	got := rig.drive(20, 64, 50*sim.Microsecond)
	rig.sys.RunFor(50 * sim.Millisecond)
	checkFIFO(t, got, 20)
	for _, rc := range rig.regs {
		w := rig.fab.On(rc.prod).writers[rig.fab.byName[rc.name].id]
		if len(w.pending) != 0 {
			t.Errorf("%s: %d writes never acked", rc.name, len(w.pending))
		}
	}
}

func TestManualMigrationUnderLoad(t *testing.T) {
	rig := newRig(t, 8, 3, Config{BrokerCount: 2})
	got := rig.drive(40, 128, 40*sim.Microsecond)
	bal := rig.fab.Balancer()
	// Move t0 to the other broker mid-stream.
	rig.sys.K.After(400*sim.Microsecond, func() {
		n0, _, _, _ := bal.Placement("t0")
		var target int
		for _, n := range bal.BrokerNodes() {
			if n != n0 {
				target = n
			}
		}
		if !bal.MigrateTo("t0", target) {
			t.Error("MigrateTo refused")
		}
	})
	rig.sys.RunFor(80 * sim.Millisecond)
	checkFIFO(t, got, 40)
	_, _, term, ok := bal.Placement("t0")
	if !ok || term < 2 {
		t.Errorf("t0 term = %d after migration, want >= 2", term)
	}
	if bal.Migrations < 1 {
		t.Errorf("Migrations = %d, want >= 1", bal.Migrations)
	}
	if bal.ActiveMigrations() != 0 {
		t.Errorf("%d migrations still active", bal.ActiveMigrations())
	}
}

func TestBrokerCrashEvacuation(t *testing.T) {
	rig := newRig(t, 8, 3, Config{BrokerCount: 2})
	got := rig.drive(40, 128, 40*sim.Microsecond)
	bal := rig.fab.Balancer()
	// Crash whichever broker holds t0 mid-stream; the balancer's
	// silence sweep must evacuate and traffic must complete.
	rig.sys.K.After(500*sim.Microsecond, func() {
		n0, _, _, _ := bal.Placement("t0")
		rig.sys.Node(n0).Kern.Crash()
	})
	rig.sys.RunFor(100 * sim.Millisecond)
	checkFIFO(t, got, 40)
	if bal.Migrations < 1 {
		t.Errorf("no migrations after broker crash")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() string {
		rig := newRig(t, 8, 3, Config{BrokerCount: 2})
		rig.drive(30, 64, 30*sim.Microsecond)
		bal := rig.fab.Balancer()
		rig.sys.K.After(300*sim.Microsecond, func() {
			n0, _, _, _ := bal.Placement("t1")
			var target int
			for _, n := range bal.BrokerNodes() {
				if n != n0 {
					target = n
				}
			}
			bal.MigrateTo("t1", target)
		})
		rig.sys.RunFor(60 * sim.Millisecond)
		out := ""
		for _, r := range bal.recs {
			out += r.String() + "\n"
		}
		for _, m := range rig.sys.Machines() {
			s := rig.fab.On(m)
			out += fmt.Sprintf("%s: fwd=%d stale=%d dup=%d gap=%d rx=%d\n",
				m.Name(), s.Forwarded, s.StaleRefused, s.Dups, s.Gaps, s.Retransmits)
		}
		return out
	}
	a, bout := run(), run()
	if a != bout {
		t.Errorf("two identical runs diverged:\n--- a ---\n%s--- b ---\n%s", a, bout)
	}
}
