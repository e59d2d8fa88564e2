package vdb_test

import (
	"fmt"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vdb"
)

func newSys(t *testing.T, nodes int) (*core.System, *vdb.Registry) {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, vdb.NewRegistry()
}

func TestBreakpointStopsAndContinues(t *testing.T) {
	sys, reg := newSys(t, 1)
	iter := 0
	sys.Spawn(sys.Node(0), "p", 0, func(sp *kern.Subprocess) {
		reg.RegisterProcess(sp, "solver")
		reg.Var("solver", "iter", func() string { return fmt.Sprint(iter) })
		sp.SleepFor(sim.Microseconds(10)) // let the debugger arm
		for iter = 0; iter < 5; iter++ {
			reg.Point(sp, "loop")
			sp.Compute(sim.Microseconds(100))
		}
	})
	d := reg.NewDebugger()
	var observed []string
	// Registration happens when the process starts; arm the debugger
	// in an event scheduled after the spawn.
	sys.K.After(0, func() {
		if err := d.Attach("solver"); err != nil {
			t.Error(err)
			return
		}
		if err := d.Break("loop"); err != nil {
			t.Error(err)
		}
		d.OnStop(func(loc string) {
			v, err := d.Print("iter")
			if err != nil {
				t.Error(err)
			}
			observed = append(observed, loc+"="+v)
			// Continue after a small "think time".
			sys.K.After(sim.Milliseconds(1), func() {
				if err := d.Continue(); err != nil {
					t.Error(err)
				}
			})
		})
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Hits() != 5 {
		t.Fatalf("hits = %d", d.Hits())
	}
	want := "[loop=0 loop=1 loop=2 loop=3 loop=4]"
	if fmt.Sprint(observed) != want {
		t.Fatalf("observed %v", observed)
	}
}

func TestAttachToRunningProcessAndSwitch(t *testing.T) {
	// The VORX improvement over Meglos: attach to any process that is
	// already running and switch between processes.
	sys, reg := newSys(t, 2)
	progress := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		sys.Spawn(sys.Node(i), fmt.Sprintf("w%d", i), 0, func(sp *kern.Subprocess) {
			reg.RegisterProcess(sp, fmt.Sprintf("proc%d", i))
			for j := 0; j < 100; j++ {
				reg.Point(sp, "tick")
				progress[i]++
				sp.Compute(sim.Microseconds(50))
			}
		})
	}
	d := reg.NewDebugger()
	// Attach mid-run: after 2 ms, break proc1 only.
	sys.K.After(sim.Milliseconds(2), func() {
		if err := d.Attach("proc1"); err != nil {
			t.Error(err)
			return
		}
		if got := d.Processes(); len(got) != 2 {
			t.Errorf("processes = %v", got)
		}
		d.Break("tick")
		d.OnStop(func(string) {
			// proc1 is frozen; verify proc0 keeps running, then
			// switch to it, then resume proc1.
			p0 := progress[0]
			sys.K.After(sim.Milliseconds(3), func() {
				if progress[0] <= p0 {
					t.Error("proc0 stalled while proc1 was stopped")
				}
				if err := d.Attach("proc0"); err != nil {
					t.Error(err)
				}
				if d.Current() != "proc0" {
					t.Error("switch failed")
				}
				d.Attach("proc1")
				d.Clear("tick")
				if err := d.Continue(); err != nil {
					t.Error(err)
				}
			})
		})
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if progress[0] != 100 || progress[1] != 100 {
		t.Fatalf("progress = %v", progress)
	}
	if d.Hits() != 1 {
		t.Fatalf("hits = %d, want 1 (breakpoint cleared after first stop)", d.Hits())
	}
}

func TestPointWithoutBreakpointIsFree(t *testing.T) {
	sys, reg := newSys(t, 1)
	var end sim.Time
	sys.Spawn(sys.Node(0), "p", 0, func(sp *kern.Subprocess) {
		reg.RegisterProcess(sp, "fast")
		for i := 0; i < 1000; i++ {
			reg.Point(sp, "hot")
		}
		end = sp.Now()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Fatalf("unarmed points consumed %v of virtual time", end)
	}
}

func TestStoppedProcessesView(t *testing.T) {
	sys, reg := newSys(t, 2)
	for i := 0; i < 2; i++ {
		i := i
		sys.Spawn(sys.Node(i), fmt.Sprintf("w%d", i), 0, func(sp *kern.Subprocess) {
			reg.RegisterProcess(sp, fmt.Sprintf("st%d", i))
			sp.SleepFor(sim.Microseconds(10)) // let the debuggers arm
			reg.Point(sp, "start")
		})
	}
	d0, d1 := reg.NewDebugger(), reg.NewDebugger()
	sys.K.After(0, func() {
		d0.Attach("st0")
		d0.Break("start")
		d1.Attach("st1")
		d1.Break("start")
	})
	checked := false
	sys.K.After(sim.Milliseconds(1), func() {
		stopped := reg.StoppedProcesses()
		if len(stopped) != 2 || stopped["st0"] != "start" {
			t.Errorf("stopped = %v", stopped)
		}
		checked = true
		d0.Continue()
		d1.Continue()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("view never checked")
	}
}

func TestErrors(t *testing.T) {
	d := vdb.NewRegistry().NewDebugger()
	if err := d.Attach("ghost"); err == nil {
		t.Fatal("attach to unknown process should fail")
	}
	if err := d.Break("x"); err == nil {
		t.Fatal("break without attach should fail")
	}
	if err := d.Continue(); err == nil {
		t.Fatal("continue without attach should fail")
	}
	if _, err := d.Print("v"); err == nil {
		t.Fatal("print without attach should fail")
	}
}
