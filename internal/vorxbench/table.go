// Package vorxbench regenerates every table, figure, and quantitative
// claim of the paper's evaluation. Each experiment builds a fresh
// simulated HPC/VORX installation, runs the paper's workload, and
// emits a table with the paper's reported numbers alongside the
// measured ones. cmd/benchtables prints them; bench_test.go wraps each
// in a testing.B benchmark; EXPERIMENTS.md records the comparison.
package vorxbench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced table or figure.
type Table struct {
	ID     string // "T1", "F1", "E4", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Format(&b)
	return b.String()
}

// experiments lists every experiment in paper order, each with the
// generator that runs it.
var experiments = []struct {
	id  string
	gen func() *Table
}{
	{"F1", Figure1},
	{"T1", Table1},
	{"T2", Table2},
	{"E1", E1ChannelThroughput},
	{"E2", E2Download},
	{"E3", E3UDOLatency},
	{"E4", E4Bitmap},
	{"E5", E5FFT},
	{"E6", E6SNETFlowControl},
	{"E7", E7Structuring},
	{"E8", E8OpenStorm},
	{"E9", E9Allocation},
	{"A1", A1SideBuffers},
	{"A2", A2TreeFanout},
	{"A3", A3FewReceivers},
	{"A4", A4TopologyTransparency},
	{"A5", A5WindowedChannels},
	{"A6", A6SpiceTransport},
	{"A7", A7CEMUScaling},
	{"F2", F2Scaling},
	{"E12", E12FaultStorm},
	{"E13", E13Supervision},
	{"E14", E14TracingOverhead},
	{"E15", E15Pipelined},
	{"E16", E16Partitions},
	{"E17", E17VChan},
	{"E18", E18LatencyObservatory},
	{"E19", E19ShardScaling},
	{"E20", E20MultiCoreScaling},
}

// ByID runs the experiment with the given id (any case), or returns
// nil when there is none.
func ByID(id string) *Table {
	id = strings.ToUpper(id)
	for _, e := range experiments {
		if e.id == id {
			return e.gen()
		}
	}
	return nil
}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

func us(f float64) string   { return fmt.Sprintf("%.0f", f) }
func us1(f float64) string  { return fmt.Sprintf("%.1f", f) }
func secs(f float64) string { return fmt.Sprintf("%.2f", f) }
