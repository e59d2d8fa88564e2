package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hpcvorx/internal/sim"
)

// The flight-recorder dump is a line-oriented text format, one event
// per line after a version header:
//
//	vorx-trace 1 <event count>
//	<seq> <at-ns> <dur-ns> <kind> <tid> <node> <lane> [detail...]
//
// Node and lane are written with spaces escaped as underscores are NOT
// assumed — instead "-" substitutes for an empty field and detail,
// which may contain spaces, is always last. The format doubles as the
// oscope trace-file v2 payload (see internal/oscope/traceio.go).

// FormatEventLine renders one event as a flight-recorder line.
func FormatEventLine(e Event) string {
	node, lane, detail := e.Node, e.Lane, e.Detail
	if node == "" {
		node = "-"
	}
	if lane == "" {
		lane = "-"
	}
	s := fmt.Sprintf("%d %d %d %s %d %s %s", e.Seq, int64(e.At), int64(e.Dur), e.Kind, e.TID, node, lane)
	if detail != "" {
		s += " " + detail
	}
	return s
}

// ParseEventLine parses a line produced by FormatEventLine.
func ParseEventLine(line string) (Event, error) {
	var e Event
	fields := strings.SplitN(line, " ", 8)
	if len(fields) < 7 {
		return e, fmt.Errorf("trace: short event line %q", line)
	}
	seq, err1 := strconv.ParseUint(fields[0], 10, 64)
	at, err2 := strconv.ParseInt(fields[1], 10, 64)
	dur, err3 := strconv.ParseInt(fields[2], 10, 64)
	kind, ok := KindByName(fields[3])
	tid, err4 := strconv.ParseUint(fields[4], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || !ok {
		return e, fmt.Errorf("trace: bad event line %q", line)
	}
	e.Seq = seq
	e.At = sim.Time(at)
	e.Dur = sim.Duration(dur)
	e.Kind = kind
	e.TID = tid
	if fields[5] != "-" {
		e.Node = fields[5]
	}
	if fields[6] != "-" {
		e.Lane = fields[6]
	}
	if len(fields) == 8 {
		e.Detail = fields[7]
	}
	return e, nil
}

// WriteFlight dumps the recorded events as a flight-recorder text file.
func (t *Tracer) WriteFlight(w io.Writer) error {
	events := t.Events()
	ew := &errWriter{w: w}
	ew.printf("vorx-trace 1 %d\n", len(events))
	for _, e := range events {
		ew.printf("%s\n", FormatEventLine(e))
	}
	return ew.err
}

// ReadFlight parses a flight-recorder dump back into events.
func ReadFlight(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty flight file")
	}
	var version, count int
	if _, err := fmt.Sscanf(sc.Text(), "vorx-trace %d %d", &version, &count); err != nil {
		return nil, fmt.Errorf("trace: bad flight header %q", sc.Text())
	}
	if version != 1 {
		return nil, fmt.Errorf("trace: unsupported flight version %d", version)
	}
	if count < 0 {
		return nil, fmt.Errorf("trace: negative event count %d in flight header", count)
	}
	// The header is unchecked input: the count is only compared, never
	// used to size an allocation.
	var events []Event
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := ParseEventLine(line)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(events) != count {
		return nil, fmt.Errorf("trace: flight file has %d events, header says %d", len(events), count)
	}
	return events, nil
}
