package oscope

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"hpcvorx/internal/kern"
	"hpcvorx/internal/trace"
)

// Recording and playback: "Execution data is recorded while the
// application is running and later the software oscilloscope is used
// to display the data" (§6.2). Save writes the recorded trace in a
// line-oriented text format; Load reconstructs a Scope from it, so a
// run on one machine can be examined elsewhere, frozen, and seeked at
// will.
//
// The format is version 2, the only one Load accepts. Its payload is
// the flight-recorder lines of package trace: each body line is one
// trace.FormatEventLine KAccount span, so the same accounting events
// can be dumped by the unified tracer and rendered here, and an oscope
// file is readable by any tool that parses trace event lines.

// Save writes the recorded intervals in the version-2 (unified trace
// event line) format. The header counts the nodes with data.
func (s *Scope) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	withData := 0
	for _, name := range names {
		if len(s.recs[name]) > 0 {
			withData++
		}
	}
	fmt.Fprintf(bw, "oscope-trace 2 %d\n", withData)
	seq := uint64(0)
	for _, name := range names {
		for _, iv := range s.recs[name] {
			e := trace.Event{
				Seq: seq, At: iv.Start, Dur: iv.End.Sub(iv.Start),
				Kind: trace.KAccount, Node: name, Lane: "cpu",
				Detail: iv.Cat.String(),
			}
			seq++
			fmt.Fprintf(bw, "%s\n", trace.FormatEventLine(e))
		}
	}
	return bw.Flush()
}

// Load reads a trace written by Save into a detached Scope (no live
// nodes; Finalize is a no-op).
func Load(r io.Reader) (*Scope, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("oscope: empty trace")
	}
	var version, count int
	if _, err := fmt.Sscanf(sc.Text(), "oscope-trace %d %d", &version, &count); err != nil {
		return nil, fmt.Errorf("oscope: bad trace header %q", sc.Text())
	}
	if version != 2 {
		return nil, fmt.Errorf("oscope: unsupported trace version %d", version)
	}
	s, err := loadV2(sc)
	if err != nil {
		return nil, err
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.order) != count {
		return nil, fmt.Errorf("oscope: trace names %d, header says %d", len(s.order), count)
	}
	return s, nil
}

func loadV2(sc *bufio.Scanner) (*Scope, error) {
	s := newScope()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := trace.ParseEventLine(line)
		if err != nil {
			return nil, fmt.Errorf("oscope: %v", err)
		}
		if e.Kind != trace.KAccount {
			return nil, fmt.Errorf("oscope: non-accounting event in trace: %q", line)
		}
		cat, ok := kern.ParseCategory(e.Detail)
		if !ok {
			return nil, fmt.Errorf("oscope: unknown category %q in %q", e.Detail, line)
		}
		s.add(e.Node, Interval{Start: e.At, End: e.At.Add(e.Dur), Cat: cat})
	}
	return s, nil
}
