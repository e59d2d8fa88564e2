// Integration tests exercising the whole stack together: the tools on
// real workloads, and the paper's 1988 installation end to end.
package hpcvorx_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hpcvorx/internal/cdb"
	"hpcvorx/internal/core"
	"hpcvorx/internal/fft"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/oscope"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/stub"
	"hpcvorx/internal/workload"
)

// TestOscilloscopeOnFFT records a distributed FFT run and checks that
// the software oscilloscope sees coherent utilization data.
func TestOscilloscopeOnFFT(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := oscope.Attach(sys)
	rng := rand.New(rand.NewSource(2))
	in := fft.NewMatrix(32)
	for i := range in.Data {
		in.Data[i] = complex(rng.Float64(), 0)
	}
	if _, _, err := fft.Run2DFFT(sys, in, 4, fft.Scatter); err != nil {
		t.Fatal(err)
	}
	sc.Finalize()
	end := sys.K.Now()
	for i := 0; i < 4; i++ {
		u := sc.Utilization(fmt.Sprintf("node%d", i), 0, end)
		sum := 0.0
		for _, f := range u {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("node%d fractions sum to %.3f", i, sum)
		}
		if u[kern.CatUser] < 0.5 {
			t.Fatalf("node%d user fraction %.2f — FFT should be compute-bound", i, u[kern.CatUser])
		}
	}
	// A balanced partition: imbalance well under 30%.
	if im := sc.Imbalance(0, end); im > 0.3 {
		t.Fatalf("imbalance = %.2f", im)
	}
	var b strings.Builder
	sc.Render(&b, 0, end, 50)
	if !strings.Contains(b.String(), "U") {
		t.Fatal("render shows no user time")
	}
}

// TestCdbSeesApplicationChannels captures the communications state in
// the middle of a real workload.
func TestCdbSeesApplicationChannels(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Node(0), "w", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "app.data", objmgr.OpenAny)
		for i := 0; i < 50; i++ {
			if err := ch.Write(sp, 256, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sys.Spawn(sys.Node(1), "r", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "app.data", objmgr.OpenAny)
		for i := 0; i < 50; i++ {
			if _, ok := ch.Read(sp); !ok {
				t.Error("read failed")
				return
			}
		}
	})
	// Freeze mid-run and inspect.
	sys.RunFor(sim.Milliseconds(10))
	snap := cdb.Capture(sys).Select(cdb.ByName("app.data"))
	if len(snap.Ends) != 2 {
		t.Fatalf("ends = %d", len(snap.Ends))
	}
	mid := snap.Ends[0].Sent + snap.Ends[1].Sent
	if mid == 0 || mid >= 50 {
		t.Fatalf("mid-run sent count = %d, want 0 < n < 50", mid)
	}
	// Finish cleanly.
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	final := cdb.Capture(sys).Select(cdb.ByName("app.data"))
	var w cdb.End
	for _, e := range final.Ends {
		if e.Machine == "node0" {
			w = e
		}
	}
	if w.Sent != 50 {
		t.Fatalf("final sent = %d", w.Sent)
	}
}

// TestPaperInstallationEndToEnd assembles the 1988 machine — ten
// workstations, seventy nodes — boots an application onto all 70
// nodes with the tree download, then runs channel traffic and a
// rendezvous storm over the running system.
func TestPaperInstallationEndToEnd(t *testing.T) {
	sys, err := core.Build(core.Config{Hosts: 10, Nodes: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Topo.Endpoints() < 80 {
		t.Fatalf("topology too small: %v", sys.Topo)
	}
	app := stub.Launch(sys, sys.Host(0), sys.Nodes(), stub.DefaultImage(), stub.SharedTree, nil)
	sys.RunFor(sim.Seconds(30))
	if !app.Ready() {
		t.Fatal("boot incomplete")
	}
	boot := app.StartedAt
	if boot.Seconds() > 4 {
		t.Fatalf("boot took %.2f s", boot.Seconds())
	}

	// Cross-machine traffic on the booted system: host-to-node and
	// node-to-node, concurrently.
	lat := workload.ChannelLatency(sys, sys.Node(3), sys.Node(57), 4, 100)
	if lat < 290 || lat > 380 {
		t.Fatalf("node-node latency on busy machine = %.1f µs", lat)
	}

	res := workload.OpenStorm(sys, 2)
	if res.Opens != 140 { // 35 pairs x 2 sides x 2 opens
		t.Fatalf("storm opens = %d", res.Opens)
	}
	if res.MaxPerManager > res.Opens/4 {
		t.Fatalf("manager hot spot: %d of %d opens on one manager", res.MaxPerManager, res.Opens)
	}
	sys.Shutdown()
}

// TestEndToEndDeterminism runs a mixed workload twice and requires
// bit-identical outcomes.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() string {
		sys, err := core.Build(core.Config{Hosts: 2, Nodes: 6, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			sys.Spawn(sys.Node(i), fmt.Sprintf("w%d", i), 0, func(sp *kern.Subprocess) {
				ch := sys.Node(i).Chans.Open(sp, fmt.Sprintf("det%d", i), objmgr.OpenAny)
				for j := 0; j < 5; j++ {
					ch.Write(sp, 100*(i+1), j)
				}
				log = append(log, fmt.Sprintf("w%d@%v", i, sp.Now()))
			})
			sys.Spawn(sys.Node(i+3), fmt.Sprintf("r%d", i), 0, func(sp *kern.Subprocess) {
				ch := sys.Node(i+3).Chans.Open(sp, fmt.Sprintf("det%d", i), objmgr.OpenAny)
				for j := 0; j < 5; j++ {
					ch.Read(sp)
				}
				log = append(log, fmt.Sprintf("r%d@%v", i, sp.Now()))
			})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ";") + fmt.Sprint(sys.IC.Stats())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}
