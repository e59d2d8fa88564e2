package trace_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the flight-recorder golden files in testdata")

// runFanIn traces a classic many-to-one run: nodes 1..7 each write five
// messages (one of them fragmented) to node 0, whose reader drains the
// seven channels round-robin and closes them. Two side buffers at the
// sink make it refuse arrivals, so the run exercises busy/resume, both
// buffered and direct reads, fabric backpressure, acks and closes.
func runFanIn(t *testing.T) *core.System {
	t.Helper()
	const writers, msgs = 7, 5
	sys, err := core.Build(core.Config{Nodes: writers + 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Trace.Enable()
	sink := sys.Node(0)
	sink.Chans.SetSideBuffers(2)
	for w := 1; w <= writers; w++ {
		w, m := w, sys.Node(w)
		sys.Spawn(m, fmt.Sprintf("writer%d", w), 0, func(sp *kern.Subprocess) {
			ch := m.Chans.Open(sp, fmt.Sprintf("fan%d", w), objmgr.OpenAny)
			for i := 0; i < msgs; i++ {
				size := 64 + 97*w + 211*i
				if i == 2 {
					size += channels.MaxFragment
				}
				if err := ch.Write(sp, size, i); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	sys.Spawn(sink, "reader", 0, func(sp *kern.Subprocess) {
		chans := make([]*channels.Channel, writers)
		for w := range chans {
			chans[w] = sink.Chans.Open(sp, fmt.Sprintf("fan%d", w+1), objmgr.OpenAny)
		}
		for i := 0; i < msgs; i++ {
			for _, ch := range chans {
				if m, ok := ch.Read(sp); !ok || m.Payload != i {
					t.Errorf("%s read %d: got %v ok=%v", ch.Name(), i, m.Payload, ok)
				}
			}
		}
		for _, ch := range chans {
			ch.Close(sp)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFanInFlightGolden: the traced fan-in run must emit exactly the
// flight-recorder dump in testdata/fanin_flight.txt. The golden was
// recorded before the emit sites in kern, netif and channels were put
// behind Tracer.Enabled() guards, so an equal dump proves the guards
// dropped no event and changed no detail text. Regenerate with
// go test -run TestFanInFlightGolden -update only for an intended
// change to what is traced.
func TestFanInFlightGolden(t *testing.T) {
	sys := runFanIn(t)
	var got bytes.Buffer
	if err := sys.Trace.WriteFlight(&got); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/fanin_flight.txt"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g := bufio.NewScanner(bytes.NewReader(got.Bytes()))
		w := bufio.NewScanner(bytes.NewReader(want))
		for line := 1; ; line++ {
			gok, wok := g.Scan(), w.Scan()
			if !gok || !wok || g.Text() != w.Text() {
				t.Fatalf("flight dump diverges from %s at line %d:\ngot  %q\nwant %q", path, line, g.Text(), w.Text())
			}
		}
	}
	seen := map[trace.Kind]int{}
	for _, e := range sys.Trace.Events() {
		seen[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KWrite, trace.KFragment, trace.KService, trace.KChanDel,
		trace.KAck, trace.KBusy, trace.KResume, trace.KRead, trace.KClose} {
		if seen[k] == 0 {
			t.Errorf("fan-in run traced no %s events", k)
		}
	}
}
