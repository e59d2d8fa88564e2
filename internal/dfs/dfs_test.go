package dfs_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
)

func newDFS(t *testing.T, hosts, nodes, replicas int) (*core.System, *dfs.Service) {
	t.Helper()
	sys, err := core.Build(core.Config{Hosts: hosts, Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, dfs.New(sys, sys.Hosts(), replicas)
}

// runApp runs fn as a process on node 0 and drives the simulation.
func runApp(t *testing.T, sys *core.System, fn func(sp *kern.Subprocess)) {
	t.Helper()
	done := false
	sys.Spawn(sys.Node(0), "app", 0, func(sp *kern.Subprocess) {
		fn(sp)
		done = true
	})
	sys.RunFor(sim.Seconds(30))
	sys.Shutdown()
	if !done {
		t.Fatal("application did not finish")
	}
}

func TestCreateAppendRead(t *testing.T) {
	sys, svc := newDFS(t, 2, 1, 1)
	c := svc.NewClient(sys.Node(0))
	runApp(t, sys, func(sp *kern.Subprocess) {
		if err := c.Create(sp, "/results/run1"); err != nil {
			t.Error(err)
		}
		if err := c.Append(sp, "/results/run1", []byte("hello ")); err != nil {
			t.Error(err)
		}
		if err := c.Append(sp, "/results/run1", []byte("world")); err != nil {
			t.Error(err)
		}
		data, err := c.Read(sp, "/results/run1")
		if err != nil {
			t.Error(err)
		}
		if !bytes.Equal(data, []byte("hello world")) {
			t.Errorf("read %q", data)
		}
	})
}

func TestErrors(t *testing.T) {
	sys, svc := newDFS(t, 1, 1, 1)
	c := svc.NewClient(sys.Node(0))
	runApp(t, sys, func(sp *kern.Subprocess) {
		if _, err := c.Read(sp, "/missing"); err == nil {
			t.Error("read of missing file should fail")
		}
		if err := c.Append(sp, "/missing", []byte("x")); err == nil {
			t.Error("append to missing file should fail")
		}
		if err := c.Create(sp, "/f"); err != nil {
			t.Error(err)
		}
		if err := c.Create(sp, "/f"); err == nil {
			t.Error("double create should fail")
		}
	})
}

func TestFilesSpreadAcrossHosts(t *testing.T) {
	sys, svc := newDFS(t, 4, 1, 1)
	c := svc.NewClient(sys.Node(0))
	runApp(t, sys, func(sp *kern.Subprocess) {
		for i := 0; i < 24; i++ {
			if err := c.Create(sp, fmt.Sprintf("/f%d", i)); err != nil {
				t.Error(err)
			}
		}
	})
	busyHosts := 0
	for h := 0; h < 4; h++ {
		if svc.Ops[h] > 0 {
			busyHosts++
		}
	}
	if busyHosts < 3 {
		t.Fatalf("files concentrated on %d hosts: %v", busyHosts, svc.Ops)
	}
}

func TestReplicationWritesAllCopies(t *testing.T) {
	sys, svc := newDFS(t, 3, 1, 2)
	c := svc.NewClient(sys.Node(0))
	runApp(t, sys, func(sp *kern.Subprocess) {
		c.Create(sp, "/r")
		c.Append(sp, "/r", []byte("abc"))
	})
	replicas := svc.ReplicaHosts("/r")
	if len(replicas) != 2 {
		t.Fatalf("replicas = %v", replicas)
	}
	for _, h := range replicas {
		if n, ok := svc.StoredOn(h, "/r"); !ok || n != 3 {
			t.Fatalf("host %d copy: %d bytes, ok=%v", h, n, ok)
		}
	}
}

func TestFailoverToReplica(t *testing.T) {
	sys, svc := newDFS(t, 3, 1, 2)
	c := svc.NewClient(sys.Node(0))
	runApp(t, sys, func(sp *kern.Subprocess) {
		c.Create(sp, "/ha")
		c.Append(sp, "/ha", []byte("survives"))
		// Primary goes down; reads must come from the replica.
		primary := svc.ReplicaHosts("/ha")[0]
		svc.SetDown(primary, true)
		data, err := c.Read(sp, "/ha")
		if err != nil {
			t.Errorf("failover read: %v", err)
		}
		if !bytes.Equal(data, []byte("survives")) {
			t.Errorf("failover read got %q", data)
		}
		// Writes still accepted by the surviving replica.
		if err := c.Append(sp, "/ha", []byte("!")); err != nil {
			t.Errorf("degraded append: %v", err)
		}
		// Primary recovers; it missed the degraded write (the model
		// has no re-sync), but service continues.
		svc.SetDown(primary, false)
		if _, err := c.Read(sp, "/ha"); err != nil {
			t.Errorf("read after recovery: %v", err)
		}
	})
}

func TestUnreplicatedFileUnavailableWhenHostDown(t *testing.T) {
	sys, svc := newDFS(t, 2, 1, 1)
	c := svc.NewClient(sys.Node(0))
	runApp(t, sys, func(sp *kern.Subprocess) {
		c.Create(sp, "/single")
		svc.SetDown(svc.ReplicaHosts("/single")[0], true)
		if _, err := c.Read(sp, "/single"); err == nil {
			t.Error("read should fail with the only replica down")
		}
	})
}

// Property (model-based): any sequence of creates and appends matches
// an in-memory map model on read-back.
func TestDFSModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) > 20 {
			ops = ops[:20]
		}
		sys, err := core.Build(core.Config{Hosts: 3, Nodes: 1, Seed: 1})
		if err != nil {
			return false
		}
		svc := dfs.New(sys, sys.Hosts(), 2)
		c := svc.NewClient(sys.Node(0))
		model := map[string][]byte{}
		okAll := true
		done := false
		sys.Spawn(sys.Node(0), "app", 0, func(sp *kern.Subprocess) {
			defer func() { done = true }()
			for _, op := range ops {
				name := fmt.Sprintf("/p%d", op%5)
				switch {
				case op%3 == 0: // create
					err := c.Create(sp, name)
					_, exists := model[name]
					if (err == nil) == exists {
						okAll = false
						return
					}
					if !exists {
						model[name] = []byte{}
					}
				case op%3 == 1: // append
					payload := []byte{op}
					err := c.Append(sp, name, payload)
					_, exists := model[name]
					if (err == nil) != exists {
						okAll = false
						return
					}
					if exists {
						model[name] = append(model[name], payload...)
					}
				default: // read
					data, err := c.Read(sp, name)
					want, exists := model[name]
					if (err == nil) != exists {
						okAll = false
						return
					}
					if exists && !bytes.Equal(data, want) {
						okAll = false
						return
					}
				}
			}
		})
		sys.RunFor(sim.Seconds(60))
		sys.Shutdown()
		return done && okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllToleratesDownReplica(t *testing.T) {
	sys, svc := newDFS(t, 3, 1, 2)
	c := svc.NewClient(sys.Node(0))
	runApp(t, sys, func(sp *kern.Subprocess) {
		c.Create(sp, "/tol")
		reps := svc.ReplicaHosts("/tol")
		svc.SetDown(reps[1], true)
		// One replica down: the write still succeeds on the other.
		if err := c.Append(sp, "/tol", []byte("x")); err != nil {
			t.Errorf("degraded append: %v", err)
		}
		svc.SetDown(reps[0], true)
		// Both down: the write must fail.
		if err := c.Append(sp, "/tol", []byte("y")); err == nil {
			t.Error("append with all replicas down should fail")
		}
	})
}
