package core_test

import (
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

func TestBuildSingleCluster(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Topo.Clusters() != 1 {
		t.Fatalf("12 endpoints should fit one cluster, got %d", sys.Topo.Clusters())
	}
	if len(sys.Hosts()) != 2 || len(sys.Nodes()) != 10 {
		t.Fatalf("hosts=%d nodes=%d", len(sys.Hosts()), len(sys.Nodes()))
	}
	if sys.Host(0).Name() != "host0" || sys.Node(9).Name() != "node9" {
		t.Fatalf("names: %s %s", sys.Host(0).Name(), sys.Node(9).Name())
	}
}

func TestBuildPaperInstallation(t *testing.T) {
	// The 1988 installation: ten SUN 3 workstations + 70 nodes.
	sys, err := core.Build(core.Config{Hosts: 10, Nodes: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Machines()); got != 80 {
		t.Fatalf("machines = %d", got)
	}
	if sys.Topo.Clusters() != 20 || sys.Topo.Dimension() != 5 {
		t.Fatalf("topology = %v", sys.Topo)
	}
	// Manager placement: distributed = one per processing node.
	if got := len(sys.Mgr.Managers()); got != 70 {
		t.Fatalf("managers = %d, want 70", got)
	}
}

func TestCentralizedManagerOnHost(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 6, CentralizedManager: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgrs := sys.Mgr.Managers()
	if len(mgrs) != 1 || mgrs[0] != sys.Host(0).EP {
		t.Fatalf("managers = %v, want [host0]", mgrs)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := core.Build(core.Config{}); err == nil {
		t.Fatal("empty machine should fail")
	}
	if _, err := core.Build(core.Config{Nodes: -1}); err == nil {
		t.Fatal("negative nodes should fail")
	}
	// Topology alone (vorx topo calls it without building) makes the
	// same machine-count check.
	for _, cfg := range []core.Config{{Hosts: 10, Nodes: -5}, {Hosts: -1, Nodes: 3}, {}} {
		if _, err := cfg.Topology(); err == nil {
			t.Fatalf("Topology() with hosts=%d nodes=%d should fail", cfg.Hosts, cfg.Nodes)
		}
	}
}

func TestHostsCopyFasterThanNodes(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Host(0).Kern.Costs()
	n := sys.Node(0).Kern.Costs()
	if h.Copy >= n.Copy || h.KernelCopy >= n.KernelCopy {
		t.Fatalf("host copy %v/%v should be below node %v/%v", h.Copy, h.KernelCopy, n.Copy, n.KernelCopy)
	}
	if h.ContextSwitch != n.ContextSwitch {
		t.Fatal("non-copy costs should be shared")
	}
}

func TestByEndpoint(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m := sys.ByEndpoint(sys.Node(1).EP); m != sys.Node(1) {
		t.Fatal("ByEndpoint mismatch")
	}
	if m := sys.ByEndpoint(topo.EndpointID(99)); m != nil {
		t.Fatal("unknown endpoint should be nil")
	}
}

func TestSpawnAndRunFor(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	sys.Spawn(sys.Node(0), "ticker", 0, func(sp *kern.Subprocess) {
		for i := 0; i < 5; i++ {
			sp.SleepFor(sim.Milliseconds(10))
			ticks++
		}
	})
	sys.RunFor(sim.Milliseconds(35))
	if ticks != 3 {
		t.Fatalf("ticks after 35ms = %d, want 3", ticks)
	}
	sys.RunFor(sim.Milliseconds(100))
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	run := func() sim.Time {
		sys, err := core.Build(core.Config{Nodes: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			i := i
			sys.Spawn(sys.Node(i), "w", 0, func(sp *kern.Subprocess) {
				sp.Compute(sim.Microseconds(float64(100 * (i + 1))))
			})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.K.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
