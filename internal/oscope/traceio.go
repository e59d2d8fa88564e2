package oscope

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

// Recording and playback: "Execution data is recorded while the
// application is running and later the software oscilloscope is used
// to display the data" (§6.2). Save writes the recorded trace in a
// line-oriented text format; Load reconstructs a Scope from it, so a
// run on one machine can be examined elsewhere, frozen, and seeked at
// will.
//
// Two versions exist. Version 1 is the original private format
// ("node start end cat" per interval). Version 2 unifies the payload
// with the flight-recorder lines of package trace: each body line is
// one trace.FormatEventLine KAccount span, so the same accounting
// events can be dumped by the unified tracer and rendered here, and an
// oscope file is readable by any tool that parses trace event lines.

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

// Load reads a trace written by Save — either version — into a
// detached Scope (no live nodes; Finalize is a no-op).
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
	var s *Scope
	var err error
	switch version {
	case 1:
		s, err = loadV1(sc)
	case 2:
		s, err = loadV2(sc)
	default:
		return nil, fmt.Errorf("oscope: unsupported trace version %d", version)
	}
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

func loadV1(sc *bufio.Scanner) (*Scope, error) {
	s := newScope()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var name string
		var start, end int64
		var cat int
		if _, err := fmt.Sscanf(line, "%s %d %d %d", &name, &start, &end, &cat); err != nil {
			return nil, fmt.Errorf("oscope: bad trace line %q", line)
		}
		if !slices.Contains(kern.Categories(), kern.Category(cat)) {
			return nil, fmt.Errorf("oscope: unknown category %d in %q", cat, line)
		}
		s.add(name, Interval{Start: sim.Time(start), End: sim.Time(end), Cat: kern.Category(cat)})
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
