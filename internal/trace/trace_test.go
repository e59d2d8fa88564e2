package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hpcvorx/internal/sim"
)

func TestNilAndDisabledTracerAreNoOps(t *testing.T) {
	var nilT *Tracer
	nilT.Enable()
	nilT.Emit(KWrite, 1, "m0", "chan/x", "w")
	nilT.EmitSpan(KHop, 1, "fabric", "up0", 0, "")
	nilT.Count("c", 1)
	nilT.GaugeSet("g", 1)
	nilT.Observe("h", 1)
	nilT.ProcEvent(0, "p", "spawn")
	if nilT.NewTraceID() != 0 || nilT.Len() != 0 || nilT.Enabled() {
		t.Fatal("nil tracer must be inert")
	}

	k := sim.NewKernel(1)
	tr := New(k)
	tr.Emit(KWrite, 1, "m0", "chan/x", "w")
	tr.Count("c", 1)
	if tr.NewTraceID() != 0 {
		t.Fatal("disabled tracer must not allocate trace IDs")
	}
	if tr.Len() != 0 || len(tr.Metrics().Snapshot()) != 0 {
		t.Fatal("disabled tracer must record nothing")
	}
}

func TestEmitAndSpanCarryVirtualTime(t *testing.T) {
	k := sim.NewKernel(1)
	tr := New(k)
	tr.Enable()
	start := k.Now()
	k.After(5*sim.Microsecond, func() {
		tr.EmitSpan(KHop, 7, "fabric", "up0", start, "m0->m1")
		tr.Emit(KDeliver, 7, "m1", "in", "")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].At != 0 || evs[0].Dur != 5*sim.Microsecond || evs[0].Kind != KHop {
		t.Fatalf("span = %+v", evs[0])
	}
	if evs[1].At != sim.Time(5*sim.Microsecond) || evs[1].Dur != 0 {
		t.Fatalf("instant = %+v", evs[1])
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatal("seq not monotonic")
	}
}

func TestRingLimitKeepsNewest(t *testing.T) {
	tr := New(sim.NewKernel(1))
	tr.Enable()
	tr.SetLimit(3)
	for i := 0; i < 10; i++ {
		tr.Emit(KSuper, 0, "n", "l", strings.Repeat("x", i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d", len(evs))
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	// Newest three, in order, with original sequence numbers.
	if evs[0].Seq != 8 || evs[1].Seq != 9 || evs[2].Seq != 10 {
		t.Fatalf("seqs = %d %d %d", evs[0].Seq, evs[1].Seq, evs[2].Seq)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if strings.Contains(name, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("round trip %q: %v %v", name, got, ok)
		}
		if k.Category() == "?" {
			t.Fatalf("kind %s has no category", name)
		}
	}
}

func TestMetricsRegistry(t *testing.T) {
	k := sim.NewKernel(1)
	tr := New(k)
	tr.Enable()
	tr.Count("a.count", 2)
	tr.Count("a.count", 3)
	tr.GaugeSet("b.level", 4)
	tr.GaugeSet("b.level", 1)
	tr.Observe("c.lat", 2000)
	tr.Observe("c.lat", 4000)

	reg := tr.Metrics()
	if v := reg.Counter("a.count").V; v != 5 {
		t.Fatalf("counter = %v", v)
	}
	g := reg.Gauge("b.level")
	if g.V != 1 || g.Min != 1 || g.Max != 4 {
		t.Fatalf("gauge = %+v", g)
	}
	h := reg.Histogram("c.lat")
	if h.N != 2 || h.Mean() != 3000 || h.Min != 2000 || h.Max != 4000 {
		t.Fatalf("hist = %+v", h)
	}

	snap := reg.Snapshot()
	if snap["a.count"] != 5 || snap["b.level"] != 1 || snap["c.lat.count"] != 2 || snap["c.lat.sum"] != 6000 {
		t.Fatalf("snapshot = %v", snap)
	}

	var b bytes.Buffer
	reg.WriteTable(&b)
	out := b.String()
	for _, want := range []string{"a.count", "b.level", "c.lat", "counters:", "gauges:", "histograms:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	var b2 bytes.Buffer
	reg.WriteTable(&b2)
	if b.String() != b2.String() {
		t.Fatal("table render not deterministic")
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	k := sim.NewKernel(1)
	tr := New(k)
	tr.Enable()
	tid := tr.NewTraceID()
	tr.Emit(KWrite, tid, "m0", "chan/x", "128B")
	k.After(3*sim.Microsecond, func() {
		tr.EmitSpan(KHop, tid, "fabric", "up0", 0, `m0->"m1"`)
		tr.Emit(KAck, tid, "m0", "chan/x", "")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		phases = append(phases, e["ph"].(string))
	}
	joined := strings.Join(phases, "")
	for _, want := range []string{"M", "X", "i", "b", "e"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing phase %q in %v", want, phases)
		}
	}
}

func TestFlightRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	tr := New(k)
	tr.Enable()
	tid := tr.NewTraceID()
	tr.Emit(KWrite, tid, "m0", "chan/x", "size=128 detail with spaces")
	tr.Emit(KProc, 0, "", "", "")
	k.After(sim.Microsecond, func() {
		tr.EmitSpan(KHop, 0, "fabric", "c0.p1", 0, "h0->h1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := tr.WriteFlight(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlight(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("len = %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got[i], want[i])
		}
	}

	if _, err := ReadFlight(strings.NewReader("")); err == nil {
		t.Fatal("empty file must fail")
	}
	if _, err := ReadFlight(strings.NewReader("vorx-trace 9 0\n")); err == nil {
		t.Fatal("future version must fail")
	}
	if _, err := ReadFlight(strings.NewReader("vorx-trace 1 1\n1 0 0 nope 0 - -\n")); err == nil {
		t.Fatal("bad kind must fail")
	}
}

func TestForwardSinkSeesEvents(t *testing.T) {
	k := sim.NewKernel(1)
	tr := New(k)
	tr.Enable()
	var got []Event
	tr.SetForward(sinkFunc(func(e Event) { got = append(got, e) }))
	tr.Emit(KSuper, 0, "host0", "super", "confirm n3")
	if len(got) != 1 || got[0].Kind != KSuper {
		t.Fatalf("forwarded = %+v", got)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) TraceEvent(e Event) { f(e) }

func TestProbeIntegration(t *testing.T) {
	k := sim.NewKernel(1)
	tr := New(k)
	tr.Enable()
	k.SetProbe(tr)
	k.Spawn("worker", func(p *sim.Proc) { p.Sleep(sim.Microsecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Detail != "spawn worker" || evs[1].Detail != "done worker" {
		t.Fatalf("proc events = %+v", evs)
	}
}
