package objmgr_test

import (
	"fmt"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

func build(t *testing.T, nodes int, central bool) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: nodes, CentralizedManager: central, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRendezvousPairsByName(t *testing.T) {
	sys := build(t, 3, false)
	var a, b objmgr.Pairing
	sys.Spawn(sys.Node(0), "a", 0, func(sp *kern.Subprocess) {
		a = sys.Mgr.Open(sp, sys.Node(0).IF, "meet", objmgr.OpenAny)
	})
	sys.Spawn(sys.Node(1), "b", 0, func(sp *kern.Subprocess) {
		b = sys.Mgr.Open(sp, sys.Node(1).IF, "meet", objmgr.OpenAny)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Chan != b.Chan || a.Chan == 0 {
		t.Fatalf("ids differ: %d vs %d", a.Chan, b.Chan)
	}
	if a.Peer != sys.Node(1).EP || b.Peer != sys.Node(0).EP {
		t.Fatalf("peers: %v / %v", a.Peer, b.Peer)
	}
}

func TestDifferentNamesDoNotPair(t *testing.T) {
	sys := build(t, 2, false)
	sys.Spawn(sys.Node(0), "a", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(0).IF, "alpha", objmgr.OpenAny)
	})
	sys.Spawn(sys.Node(1), "b", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(1).IF, "beta", objmgr.OpenAny)
	})
	if err := sys.Run(); err == nil {
		t.Fatal("mismatched names should deadlock both openers")
	}
	sys.Shutdown()
}

func TestServeConnectSemantics(t *testing.T) {
	// Serve pairs only with Connect; two Serves must not pair.
	sys := build(t, 3, false)
	paired := 0
	sys.Spawn(sys.Node(0), "srv1", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(0).IF, "svc", objmgr.Serve)
		paired++
	})
	sys.Spawn(sys.Node(1), "srv2", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(1).IF, "svc", objmgr.Serve)
		paired++
	})
	sys.Spawn(sys.Node(2), "cli", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(2).IF, "svc", objmgr.Connect)
		paired++
	})
	err := sys.Run() // one Serve left waiting
	if err == nil {
		t.Fatal("one server should remain blocked")
	}
	if paired != 2 {
		t.Fatalf("paired = %d, want 2 (one serve + one connect)", paired)
	}
	sys.Shutdown()
}

func TestSequentialServeReuse(t *testing.T) {
	sys := build(t, 4, false)
	served := 0
	sys.Spawn(sys.Node(0), "server", 0, func(sp *kern.Subprocess) {
		for i := 0; i < 3; i++ {
			sys.Mgr.Open(sp, sys.Node(0).IF, "pool", objmgr.Serve)
			served++
		}
	})
	for c := 1; c <= 3; c++ {
		c := c
		sys.Spawn(sys.Node(c), fmt.Sprintf("c%d", c), 0, func(sp *kern.Subprocess) {
			sys.Mgr.Open(sp, sys.Node(c).IF, "pool", objmgr.Connect)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 3 {
		t.Fatalf("served = %d", served)
	}
}

func TestManagerForIsStableAndCovers(t *testing.T) {
	sys := build(t, 8, false)
	seen := map[topo.EndpointID]int{}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("chan-%d", i)
		m1 := sys.Mgr.ManagerFor(name)
		m2 := sys.Mgr.ManagerFor(name)
		if m1 != m2 {
			t.Fatalf("hash unstable for %q", name)
		}
		seen[m1]++
	}
	if len(seen) < 6 {
		t.Fatalf("distributed hashing used only %d of 8 managers", len(seen))
	}
}

func TestCentralizedRoutesEverythingToOneManager(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 4, CentralizedManager: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := sys.Mgr.ManagerFor(fmt.Sprintf("n%d", i)); got != sys.Host(0).EP {
			t.Fatalf("name hashed to %v, want the single host manager", got)
		}
	}
	// And processed counts accumulate there.
	sys.Spawn(sys.Node(0), "a", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(0).IF, "x", objmgr.OpenAny)
	})
	sys.Spawn(sys.Node(1), "b", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(1).IF, "x", objmgr.OpenAny)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Mgr.Processed(sys.Host(0).EP); got != 2 {
		t.Fatalf("processed = %d", got)
	}
}

func TestOpenChargesManagerCPU(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 2, CentralizedManager: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Node(0), "a", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(0).IF, "y", objmgr.OpenAny)
	})
	sys.Spawn(sys.Node(1), "b", 0, func(sp *kern.Subprocess) {
		sys.Mgr.Open(sp, sys.Node(1).IF, "y", objmgr.OpenAny)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Two opens × (interrupt entry + manager processing).
	want := 2 * (sys.Costs.InterruptEntry + objmgr.ManagerProcess)
	if got := sys.Host(0).Kern.Totals()[kern.CatSystem]; got != sim.Duration(want) {
		t.Fatalf("manager CPU = %v, want %v", got, want)
	}
}

func TestUniqueChannelIDs(t *testing.T) {
	sys := build(t, 6, false)
	ids := map[uint64]bool{}
	var mu []uint64
	for i := 0; i < 10; i++ {
		i := i
		sys.Spawn(sys.Node(i%6), fmt.Sprintf("a%d", i), 0, func(sp *kern.Subprocess) {
			p := sys.Mgr.Open(sp, sys.Node(i%6).IF, fmt.Sprintf("uniq%d", i), objmgr.OpenAny)
			mu = append(mu, p.Chan)
		})
		sys.Spawn(sys.Node((i+1)%6), fmt.Sprintf("b%d", i), 0, func(sp *kern.Subprocess) {
			sys.Mgr.Open(sp, sys.Node((i+1)%6).IF, fmt.Sprintf("uniq%d", i), objmgr.OpenAny)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range mu {
		if ids[id] {
			t.Fatalf("duplicate channel id %d", id)
		}
		ids[id] = true
	}
}

// TestMixedModesShareOnePendingTable: Serve/Connect and OpenAny opens
// on many names, waiting in the manager's one pending table at the same
// time, each pair with their own partner, at one manager (the Meglos
// placement) and at one manager per node (VORX), where the names are
// owned by different managers of the one shard.
func TestMixedModesShareOnePendingTable(t *testing.T) {
	for _, central := range []bool{true, false} {
		t.Run(fmt.Sprintf("central=%v", central), func(t *testing.T) {
			sys := build(t, 4, central)
			const names = 12
			owners := map[topo.EndpointID]bool{}
			type end struct {
				node int
				p    objmgr.Pairing
			}
			ends := make([][2]end, names)
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("mixed%d", i)
				owners[sys.Mgr.ManagerFor(name)] = true
				modes := [2]objmgr.Mode{objmgr.OpenAny, objmgr.OpenAny}
				if i%2 == 1 {
					modes = [2]objmgr.Mode{objmgr.Serve, objmgr.Connect}
				}
				for j := 0; j < 2; j++ {
					n := (i + j*(1+i%3)) % 4
					ends[i][j].node = n
					sys.Spawn(sys.Node(n), fmt.Sprintf("%s-%d", name, j), 0, func(sp *kern.Subprocess) {
						// Stagger so later names arrive while earlier
						// ones still wait for their partners.
						sp.SleepFor(sim.Duration(j*names+i) * 10 * sim.Microsecond)
						ends[i][j].p = sys.Mgr.Open(sp, sys.Node(n).IF, name, modes[j])
					})
				}
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !central && len(owners) < 2 {
				t.Fatalf("the names hash to %d manager(s), want several", len(owners))
			}
			ids := map[uint64]bool{}
			for i, e := range ends {
				a, b := e[0], e[1]
				if a.p.Chan != b.p.Chan || ids[a.p.Chan] {
					t.Fatalf("mixed%d: ids %d and %d (seen before: %v)", i, a.p.Chan, b.p.Chan, ids[a.p.Chan])
				}
				ids[a.p.Chan] = true
				if a.p.Peer != sys.Node(b.node).EP || b.p.Peer != sys.Node(a.node).EP {
					t.Fatalf("mixed%d: peers %v and %v, want %v and %v", i, a.p.Peer, b.p.Peer, sys.Node(b.node).EP, sys.Node(a.node).EP)
				}
			}
			total := 0
			for _, ep := range sys.Mgr.Managers() {
				total += sys.Mgr.Processed(ep)
			}
			if total != 2*names {
				t.Fatalf("managers processed %d opens, want %d", total, 2*names)
			}
		})
	}
}
