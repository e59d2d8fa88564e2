package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"hpcvorx/internal/obs"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

func ev(at sim.Time) trace.Event {
	return trace.Event{At: at, Kind: trace.KSuper}
}

func TestSamplerBoundaries(t *testing.T) {
	reg := trace.NewRegistry(nil)
	s := obs.NewSampler(reg, 100)

	reg.Counter("c").Add(1)
	s.TraceEvent(ev(50)) // before the first boundary: nothing
	if s.Len() != 0 {
		t.Fatalf("len = %d before first boundary", s.Len())
	}
	reg.Counter("c").Add(1)
	s.TraceEvent(ev(250)) // crosses boundaries 100 and 200
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	reg.Counter("c").Add(40)
	s.TraceEvent(ev(300)) // exactly on a boundary: inclusive
	ss := s.Samples()
	if len(ss) != 3 || ss[0].At != 100 || ss[1].At != 200 || ss[2].At != 300 {
		t.Fatalf("sample times = %+v", ss)
	}
	// Boundaries 100 and 200 were both materialized at the t=250
	// event, so they share the state as of that instant.
	if ss[0].Snap["c"] != 2 || ss[1].Snap["c"] != 2 || ss[2].Snap["c"] != 42 {
		t.Fatalf("sample values = %v %v %v", ss[0].Snap["c"], ss[1].Snap["c"], ss[2].Snap["c"])
	}
}

func TestSamplerRingLimit(t *testing.T) {
	reg := trace.NewRegistry(nil)
	s := obs.NewSampler(reg, 10)
	s.SetLimit(3)
	s.TraceEvent(ev(100)) // boundaries 10..100
	if s.Len() != 3 || s.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d", s.Len(), s.Dropped())
	}
	ss := s.Samples()
	if ss[0].At != 80 || ss[2].At != 100 {
		t.Fatalf("ring kept %v..%v, want newest 80..100", ss[0].At, ss[2].At)
	}
}

func TestSamplerFlush(t *testing.T) {
	reg := trace.NewRegistry(nil)
	s := obs.NewSampler(reg, 100)
	s.TraceEvent(ev(120))
	s.Flush(450) // boundaries 200..400 plus the end instant itself
	ss := s.Samples()
	if len(ss) != 5 || ss[len(ss)-1].At != 450 {
		t.Fatalf("flush produced %+v", ss)
	}
	// Flushing again at the same instant must not duplicate.
	s.Flush(450)
	if s.Len() != 5 {
		t.Fatalf("double flush grew the series to %d", s.Len())
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *obs.Sampler
	s.TraceEvent(ev(10))
	s.Flush(100)
	s.SetLimit(2)
	if s.Len() != 0 || s.Dropped() != 0 || s.Samples() != nil || s.Period() != 0 {
		t.Fatal("nil sampler must be inert")
	}
	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "at_ns\n" {
		t.Fatalf("nil CSV = %q", b.String())
	}
}

func TestSamplerCSV(t *testing.T) {
	reg := trace.NewRegistry(nil)
	s := obs.NewSampler(reg, 100)
	reg.Counter("b.count").Add(3)
	s.TraceEvent(ev(100))
	reg.Gauge("a.depth").Set(1.5)
	s.TraceEvent(ev(200))
	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "at_ns,a.depth,b.count\n100,0,3\n200,1.5,3\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestOpenMetricsFormat(t *testing.T) {
	reg := trace.NewRegistry(nil)
	reg.Counter("chan.written").Add(64)
	reg.Gauge("hpc.q.up5").Set(2)
	h := reg.Histogram("lat.e2e", 10, 20)
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)

	var b bytes.Buffer
	if err := obs.WriteOpenMetrics(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE vorx_chan_written counter\n",
		"vorx_chan_written_total 64\n",
		"# TYPE vorx_hpc_q_up5 gauge\n",
		"vorx_hpc_q_up5 2\n",
		"# TYPE vorx_lat_e2e histogram\n",
		"vorx_lat_e2e_bucket{le=\"10\"} 1\n",
		"vorx_lat_e2e_bucket{le=\"20\"} 2\n", // cumulative
		"vorx_lat_e2e_bucket{le=\"+Inf\"} 3\n",
		"vorx_lat_e2e_sum 119\n",
		"vorx_lat_e2e_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing # EOF terminator:\n%s", out)
	}
	var b2 bytes.Buffer
	if err := obs.WriteOpenMetrics(&b2, reg); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("OpenMetrics export is not deterministic")
	}
}
