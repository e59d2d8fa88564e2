package fault_test

import (
	"strconv"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vchan"
)

// vchanEngine builds the 4-cluster system with a started vchan fabric
// (lanes on node2, cluster 1, and node6, cluster 2; balancer on
// host0, cluster 0) and a fault engine bound to both.
func vchanEngine(t *testing.T) (*fault.Engine, *core.System, *vchan.Fabric) {
	t.Helper()
	sys, err := core.Build(core.Config{Hosts: 2, Nodes: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fab := vchan.Enable(sys, vchan.Config{Brokers: []int{2, 6}})
	fab.Declare("t0", sys.Node(0), sys.Node(1))
	fab.Declare("t1", sys.Node(10), sys.Node(11))
	fab.Start()
	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	eng.BindVChan(fab.Balancer())
	return eng, sys, fab
}

// TestRebalanceScheduleValidation is the whole-schedule hardening
// table for the rebalance op: unknown vchannels, non-lane targets,
// crashed targets, and targets across an active partition cut are all
// rejected before anything is armed; the valid schedules prove those
// rejections aren't over-broad.
func TestRebalanceScheduleValidation(t *testing.T) {
	cases := []struct {
		name     string
		schedule string
		applyErr string // "" = must apply
	}{
		{name: "valid rebalance", schedule: `1ms rebalance t0 node2`},
		{name: "valid repeated with gap", schedule: `
			1ms rebalance t0 node2
			3ms rebalance t0 node6`},
		{name: "valid same-instant different vchans", schedule: `
			1ms rebalance t0 node2
			1ms rebalance t1 node6`},
		{name: "valid same-group target during partition", schedule: `
			1ms partition 0,1|2,3
			2ms rebalance t0 node2
			4ms heal`},
		{name: "valid cross-group target after heal", schedule: `
			1ms partition 0,1|2,3
			2ms heal
			3ms rebalance t0 node6`},
		{name: "valid target after restart", schedule: `
			1ms crash node2
			2ms restart node2
			3ms rebalance t0 node2`},

		{name: "unknown vchan", schedule: `1ms rebalance zz node2`,
			applyErr: `unknown vchannel "zz"`},
		{name: "missing target", schedule: `1ms rebalance t0`,
			applyErr: "want: rebalance"},
		{name: "host target", schedule: `1ms rebalance t0 host0`,
			applyErr: "must be a nodeN"},
		{name: "unknown node", schedule: `1ms rebalance t0 node99`,
			applyErr: "no node99 in this system"},
		{name: "non-lane target", schedule: `1ms rebalance t0 node3`,
			applyErr: "hosts no vchan lanes"},
		{name: "crashed target", schedule: `
			1ms crash node2
			2ms rebalance t0 node2`,
			applyErr: "targets crashed node2"},
		{name: "crashed target, two spellings", schedule: `
			1ms crash node02
			2ms rebalance t0 node2`,
			applyErr: "targets crashed node2"},
		{name: "target across partition cut", schedule: `
			1ms partition 0,1|2,3
			2ms rebalance t0 node6
			4ms heal`,
			applyErr: "across the active partition cut"},
		{name: "same-instant same-vchan", schedule: `
			1ms rebalance t0 node2
			1ms rebalance t0 node6`,
			applyErr: "ambiguous order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops, err := fault.ParseSchedule(strings.NewReader(tc.schedule))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			eng, _, _ := vchanEngine(t)
			err = eng.Apply(ops)
			if tc.applyErr == "" {
				if err != nil {
					t.Fatalf("apply: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.applyErr) {
				t.Fatalf("apply error = %v, want fragment %q", err, tc.applyErr)
			}
		})
	}
}

// TestRebalanceWithoutBalancer: a schedule using rebalance against an
// engine with no balancer bound is rejected whole.
func TestRebalanceWithoutBalancer(t *testing.T) {
	eng := boundEngine(t)
	ops, err := fault.ParseSchedule(strings.NewReader(`1ms rebalance t0 node2`))
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Apply(ops)
	if err == nil || !strings.Contains(err.Error(), "no vchan balancer bound") {
		t.Fatalf("apply error = %v, want balancer-binding rejection", err)
	}
}

// TestRebalanceOpFires: an applied rebalance actually migrates the
// vchannel — the placement moves to the target node and the engine
// records the op.
func TestRebalanceOpFires(t *testing.T) {
	eng, sys, fab := vchanEngine(t)
	bal := fab.Balancer()
	node0, _, _, ok := bal.Placement("t0")
	if !ok {
		t.Fatal("t0 has no initial placement")
	}
	target := 2
	if node0 == 2 {
		target = 6
	}
	ops, err := fault.ParseSchedule(strings.NewReader("1ms rebalance t0 node" + strconv.Itoa(target)))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(ops); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(20 * sim.Millisecond)
	node, _, term, ok := bal.Placement("t0")
	if !ok || node != target || term != 2 {
		t.Fatalf("after rebalance: node=%d term=%d ok=%v, want node=%d term=2", node, term, ok, target)
	}
	recs := eng.Records()
	found := false
	for _, r := range recs {
		if r.Kind == "rebalance" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rebalance record in %v", recs)
	}
}
