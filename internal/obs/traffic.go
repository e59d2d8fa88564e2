package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hpcvorx/internal/trace"
)

// Traffic is the per-service message table of the paper's reference
// [20] monitoring: a trace.Sink that counts the KService events netif
// emits as it hands an envelope to a registered service (lane
// "svc/<name>", detail "<n>B from <src>") and sums their byte counts.
// Other events are ignored. The zero value is ready to use.
type Traffic struct {
	by map[string]serviceTraffic
}

type serviceTraffic struct{ msgs, bytes int }

// TraceEvent implements trace.Sink.
func (t *Traffic) TraceEvent(e trace.Event) {
	if e.Kind != trace.KService {
		return
	}
	svc, ok := strings.CutPrefix(e.Lane, "svc/")
	if !ok {
		return
	}
	// netif always writes the count; a detail without one (a hand-made
	// event) still counts the message, with no bytes.
	size, _, _ := strings.Cut(e.Detail, "B")
	n, _ := strconv.Atoi(size)
	if t.by == nil {
		t.by = map[string]serviceTraffic{}
	}
	st := t.by[svc]
	st.msgs++
	st.bytes += n
	t.by[svc] = st
}

// WriteTable writes the message total and one row per service, the
// busiest (most bytes) first, ties broken by name.
func (t *Traffic) WriteTable(w io.Writer) {
	names := make([]string, 0, len(t.by))
	total := 0
	for svc, st := range t.by {
		names = append(names, svc)
		total += st.msgs
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := t.by[names[i]], t.by[names[j]]
		if a.bytes != b.bytes {
			return a.bytes > b.bytes
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "msgtrace: %d messages\n", total)
	fmt.Fprintf(w, "%-18s %10s %12s\n", "SERVICE", "MESSAGES", "BYTES")
	for _, svc := range names {
		st := t.by[svc]
		fmt.Fprintf(w, "%-18s %10d %12d\n", svc, st.msgs, st.bytes)
	}
}
