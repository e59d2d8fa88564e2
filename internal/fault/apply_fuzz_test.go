package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vchan"
	"hpcvorx/internal/vorxbench"
)

// FuzzApplySchedule applies every schedule that parses to a system
// with every binding Apply validates against (resmgr, DFS, a vchan
// balancer), then runs paced channel and vchannel traffic under it. A
// schedule Apply rejects must fail with a "fault:" error and arm
// nothing: no event is scheduled, and no fault fires within the run's
// horizon. One it accepts must run without a panic, whatever it cuts,
// crashes or moves.
func FuzzApplySchedule(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(vorxbench.ChaosSchedule(seed))
		f.Add(vorxbench.StormSchedule(seed))
	}
	f.Add(stormSchedule)
	f.Add("1ms link-down 0 1\n2ms crash node99\n") // valid op, then a bad target
	f.Add("1ms link-down 0 1 junk\n")              // an arg past the op's last
	f.Fuzz(func(t *testing.T, schedule string) {
		ops, err := fault.ParseSchedule(strings.NewReader(schedule))
		if err != nil {
			return
		}
		const nodes, msgs = 15, 10
		const pace, horizon = 300 * sim.Microsecond, 40 * sim.Millisecond
		// 2 hosts + 15 nodes: 5 clusters, lanes on nodes 13 and 14.
		sys, err := core.Build(core.Config{Hosts: 2, Nodes: nodes, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		fab := vchan.Enable(sys, vchan.Config{Brokers: []int{13, 14}})
		fab.Declare("t0", sys.Node(0), sys.Node(1))
		fab.Declare("t1", sys.Node(10), sys.Node(11))
		fab.Start()
		res := resmgr.NewVORX(sys.K, nodes)
		if _, err := res.Allocate("fuzz", nodes); err != nil {
			t.Fatal(err)
		}
		eng := fault.New(sys.K, 1)
		eng.Bind(sys)
		eng.BindResmgr(res)
		eng.BindDFS(dfs.New(sys, sys.Hosts(), 2))
		eng.BindVChan(fab.Balancer())
		before := sys.K.Scheduled()
		if err := eng.Apply(ops); err != nil {
			if !strings.HasPrefix(err.Error(), "fault:") {
				t.Fatalf("Apply error %q does not start with \"fault:\"", err)
			}
			if n := sys.K.Scheduled() - before; n != 0 {
				t.Fatalf("rejected schedule (%v) scheduled %d events", err, n)
			}
			sys.RunFor(horizon)
			sys.Shutdown()
			if recs := eng.Records(); len(recs) != 0 {
				t.Fatalf("rejected schedule (%v) still fired: %v", err, recs)
			}
			return
		}

		for _, tn := range []struct {
			name       string
			prod, cons int
		}{{"t0", 0, 1}, {"t1", 10, 11}} {
			tn := tn
			prod, cons := sys.Node(tn.prod), sys.Node(tn.cons)
			sys.Spawn(prod, "w/"+tn.name, 1, func(sp *kern.Subprocess) {
				w := fab.On(prod).OpenWriter(sp, tn.name)
				for i := 0; i < msgs; i++ {
					if w.Write(sp, 128, i) != nil {
						return
					}
					sp.SleepFor(pace)
				}
			})
			sys.Spawn(cons, "r/"+tn.name, 1, func(sp *kern.Subprocess) {
				r := fab.On(cons).OpenReader(sp, tn.name)
				for i := 0; i < msgs; i++ {
					if _, err := r.Read(sp); err != nil {
						return
					}
				}
			})
		}
		for pi := 2; pi < 6; pi++ {
			name := fmt.Sprintf("fuzz%d", pi)
			wm, rm := sys.Node(pi), sys.Node(pi+4)
			sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
				ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
				for i := 0; i < msgs; i++ {
					if ch.Write(sp, 256, i) != nil {
						return
					}
					sp.SleepFor(pace)
				}
			})
			sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
				ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
				for i := 0; i < msgs; i++ {
					if _, ok := ch.Read(sp); !ok {
						return
					}
				}
			})
		}
		sys.RunFor(horizon)
		sys.Shutdown()
	})
}
