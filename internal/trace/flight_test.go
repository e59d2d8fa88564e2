package trace

// Flight-recorder edge cases: dumps written from a wrapped ring, and
// damaged files. The live-vs-replay analyzer equivalence rides in
// internal/obs (which owns the analyzer).

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"hpcvorx/internal/sim"
)

func TestFlightFromWrappedRing(t *testing.T) {
	tr := New(sim.NewKernel(1))
	tr.Enable()
	tr.SetLimit(4)
	for i := 0; i < 10; i++ {
		tr.Emit(KFlow, uint64(i+1), "n", "l", fmt.Sprintf("m%d", i))
	}
	var b bytes.Buffer
	if err := tr.WriteFlight(&b); err != nil {
		t.Fatal(err)
	}
	// The header must count what survived the ring, not what was
	// emitted, and the retained events must come back in emit order
	// with their original sequence numbers.
	if !strings.HasPrefix(b.String(), "vorx-trace 1 4\n") {
		t.Fatalf("header = %q", strings.SplitN(b.String(), "\n", 2)[0])
	}
	evs, err := ReadFlight(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("read %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if evs[0].TID != 7 || evs[3].Detail != "m9" {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
}

func TestFlightTruncatedFileFails(t *testing.T) {
	tr := New(sim.NewKernel(1))
	tr.Enable()
	for i := 0; i < 5; i++ {
		tr.Emit(KFlow, 0, "n", "l", "x")
	}
	var b bytes.Buffer
	if err := tr.WriteFlight(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	truncated := strings.Join(lines[:len(lines)-2], "\n") + "\n"
	_, err := ReadFlight(strings.NewReader(truncated))
	if err == nil || !strings.Contains(err.Error(), "header says") {
		t.Fatalf("truncated dump must fail the count check, got %v", err)
	}

	// A line cut mid-field is a parse error, not a silent skip.
	cut := b.String()[:len(b.String())-assumeTailLen(lines)]
	if _, err := ReadFlight(strings.NewReader(cut)); err == nil {
		t.Fatal("mid-line truncation must fail")
	}
}

// assumeTailLen chops the last line roughly in half so the final
// event line is cut mid-field.
func assumeTailLen(lines []string) int {
	last := lines[len(lines)-1]
	return len(last)/2 + 1
}

// FuzzReadFlight: no input panics ReadFlight, and every event it
// accepts survives FormatEventLine → ParseEventLine unchanged. The
// seeds are one line of each event kind in the heal flight golden
// (testdata/pr4 at the repository root), alone and together.
func FuzzReadFlight(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/pr4/trace_heal_flight.txt")
	if err != nil {
		f.Fatal(err)
	}
	seen := map[string]bool{}
	var sample []string
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n")[1:] {
		kind := strings.SplitN(line, " ", 5)[3]
		if !seen[kind] {
			seen[kind] = true
			sample = append(sample, line)
			f.Add("vorx-trace 1 1\n" + line + "\n")
		}
	}
	f.Add(fmt.Sprintf("vorx-trace 1 %d\n%s\n", len(sample), strings.Join(sample, "\n")))
	f.Fuzz(func(t *testing.T, dump string) {
		evs, err := ReadFlight(strings.NewReader(dump))
		if err != nil {
			return
		}
		for _, e := range evs {
			line := FormatEventLine(e)
			back, err := ParseEventLine(line)
			if err != nil || back != e {
				t.Fatalf("event %+v formats as %q and parses back as %+v (%v)", e, line, back, err)
			}
		}
	})
}
