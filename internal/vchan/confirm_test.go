package vchan_test

import (
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/super"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/vchan"
	"hpcvorx/internal/verify"
)

// TestConfirmedDeathBeatsSilence wires the supervisor's quorum
// confirmation into the balancer (super.OnConfirm →
// BrokerConfirmedDead): a crashed broker is evacuated as soon as the
// heartbeat protocol confirms it dead, not after the balancer's own
// much longer report-silence window, and the stream completes exactly
// once in FIFO order across the forced move.
func TestConfirmedDeathBeatsSilence(t *testing.T) {
	const (
		msgs    = 20
		brokerA = 10
		brokerB = 11
	)
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fab := vchan.Enable(sys, vchan.Config{Brokers: []int{brokerA, brokerB}, LanesPerBroker: 1})
	fab.Declare("t0", sys.Node(0), sys.Node(1))
	chk := verify.AttachAll(sys, fab)
	fab.Start()

	sup := super.New(sys, sys.Host(0), nil, super.Config{
		HeartbeatEvery: 500 * sim.Microsecond,
		ConfirmAfter:   2 * sim.Millisecond,
	})
	bal := fab.Balancer()
	sup.OnConfirm(func(ep topo.EndpointID, _ uint32) { bal.BrokerConfirmedDead(ep) })

	eng := fault.New(sys.K, 5)
	eng.Bind(sys)
	eng.SetOracle(false) // detection must come from heartbeats
	crashAt := 3 * sim.Millisecond
	eng.CrashNodeAt(crashAt, brokerA)

	var got []int
	sys.Spawn(sys.Node(0), "w/t0", 1, func(sp *kern.Subprocess) {
		w := fab.On(sys.Node(0)).OpenWriter(sp, "t0")
		for k := 0; k < msgs; k++ {
			if err := w.Write(sp, 64, k); err != nil {
				return
			}
			sp.SleepFor(200 * sim.Microsecond)
		}
	})
	sys.Spawn(sys.Node(1), "r/t0", 1, func(sp *kern.Subprocess) {
		r := fab.On(sys.Node(1)).OpenReader(sp, "t0")
		for k := 0; k < msgs; k++ {
			m, err := r.Read(sp)
			if err != nil {
				return
			}
			got = append(got, m.Payload.(int))
		}
	})

	sup.Start()
	sup.StopAt(40 * sim.Millisecond)
	sys.RunFor(40 * sim.Millisecond)

	if !chk.Ok() {
		t.Fatalf("checker violations:\n%v", chk.Violations())
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	for k, v := range got {
		if v != k {
			t.Fatalf("FIFO broken at %d: got %v", k, got)
		}
	}
	node, _, term, ok := bal.Placement("t0")
	if !ok || node != brokerB || term < 2 {
		t.Fatalf("placement = node%d term=%d ok=%v, want node%d term>=2", node, term, ok, brokerB)
	}

	// The move must be confirm-driven: a "(confirmed)" death record,
	// no "(silent)" one, and the evacuation starting well before the
	// balancer's own silence window (25 report periods = 12.5ms after
	// the crash) could have fired.
	var confirmedAt sim.Time
	for _, r := range bal.Records() {
		if strings.Contains(r.What, "dead (silent)") {
			t.Fatalf("broker written off by silence, not confirmation: %v", r)
		}
		if strings.Contains(r.What, "dead (confirmed)") {
			confirmedAt = r.At
		}
	}
	if confirmedAt == 0 {
		t.Fatalf("no confirmed-death record:\n%v", bal.Records())
	}
	// Crash + ConfirmAfter + sweep granularity + fabric slop.
	bound := crashAt + 2*sim.Millisecond + 2*sim.Millisecond
	if confirmedAt.Sub(0) > bound {
		t.Fatalf("confirmed at %v, want within %v of the crash", confirmedAt, bound)
	}
}
