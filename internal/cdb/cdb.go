// Package cdb is the VORX communications debugger (paper §6.1): a
// tool for examining the communications state of an application,
// built for the surprisingly common bug where "the application stops
// running with each process waiting for input from another process".
//
// For each channel, cdb reports the channel name, which two endpoints
// it connects, how many messages have been sent in each direction,
// and — most importantly — the state of each end: whether the
// application is blocked waiting for input or output on it. Filters
// isolate the channels of interest, and a waits-for cycle detector
// points at the processes responsible for a deadlock.
//
// As the paper notes, cdb was easy to implement because the
// communications driver already encodes everything it needs; here it
// reads the channel service's Snapshot on every machine.
package cdb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// End is one channel end, annotated with its machine name.
type End struct {
	channels.EndState
	Machine string
}

// Snapshot is the communications state of the whole system at one
// instant.
type Snapshot struct {
	At      sim.Time
	Ends    []End
	Blocked []sim.BlockedProc
}

// Capture reads the channel state of every machine.
func Capture(sys *core.System) Snapshot {
	s := Snapshot{At: sys.K.Now()}
	for _, m := range sys.Machines() {
		for _, e := range m.Chans.Snapshot() {
			s.Ends = append(s.Ends, End{EndState: e, Machine: m.Name()})
		}
	}
	for _, p := range sys.K.Blocked() {
		s.Blocked = append(s.Blocked, sim.BlockedProc{Name: p.Name(), Reason: p.WaitReason()})
	}
	sort.Slice(s.Ends, func(i, j int) bool {
		if s.Ends[i].Name != s.Ends[j].Name {
			return s.Ends[i].Name < s.Ends[j].Name
		}
		return s.Ends[i].Local < s.Ends[j].Local
	})
	return s
}

// Filter selects channel ends of interest.
type Filter func(e End) bool

// ByName keeps ends whose channel name contains substr.
func ByName(substr string) Filter {
	return func(e End) bool { return strings.Contains(e.Name, substr) }
}

// BlockedOnly keeps ends with a blocked reader or writer.
func BlockedOnly() Filter {
	return func(e End) bool { return e.ReaderBlocked || e.WriterBlocked }
}

// Select returns a copy of the snapshot containing only ends passing
// every filter.
func (s Snapshot) Select(filters ...Filter) Snapshot {
	out := Snapshot{At: s.At, Blocked: s.Blocked}
	for _, e := range s.Ends {
		keep := true
		for _, f := range filters {
			if !f(e) {
				keep = false
				break
			}
		}
		if keep {
			out.Ends = append(out.Ends, e)
		}
	}
	return out
}

// WaitCycles finds endpoint-level waits-for cycles: a blocked reader
// or writer on a channel waits on the channel's peer endpoint. Each
// returned cycle lists the endpoints involved, smallest first —
// usually enough to "isolate the process that caused the deadlock to
// occur".
func (s Snapshot) WaitCycles() [][]topo.EndpointID {
	adj := map[topo.EndpointID][]topo.EndpointID{}
	for _, e := range s.Ends {
		if e.ReaderBlocked || e.WriterBlocked {
			adj[e.Local] = append(adj[e.Local], e.Peer)
		}
	}
	var cycles [][]topo.EndpointID
	seenCycle := map[string]bool{}
	var stack []topo.EndpointID
	onStack := map[topo.EndpointID]bool{}
	var dfs func(v topo.EndpointID)
	visited := map[topo.EndpointID]bool{}
	dfs = func(v topo.EndpointID) {
		visited[v] = true
		onStack[v] = true
		stack = append(stack, v)
		for _, w := range adj[v] {
			if onStack[w] {
				// Extract the cycle from the stack.
				var cyc []topo.EndpointID
				for i := len(stack) - 1; i >= 0; i-- {
					cyc = append(cyc, stack[i])
					if stack[i] == w {
						break
					}
				}
				sort.Slice(cyc, func(i, j int) bool { return cyc[i] < cyc[j] })
				key := fmt.Sprint(cyc)
				if !seenCycle[key] {
					seenCycle[key] = true
					cycles = append(cycles, cyc)
				}
				continue
			}
			if !visited[w] {
				dfs(w)
			}
		}
		onStack[v] = false
		stack = stack[:len(stack)-1]
	}
	var verts []topo.EndpointID
	for v := range adj {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	for _, v := range verts {
		if !visited[v] {
			dfs(v)
		}
	}
	return cycles
}

// endState renders one end's blocking state.
func endState(e End) string {
	switch {
	case e.ReaderBlocked:
		return "blocked-read"
	case e.WriterBlocked:
		return "blocked-write"
	case e.Closed:
		return "closed"
	default:
		return "idle"
	}
}

// Format writes the snapshot as the cdb report.
func (s Snapshot) Format(w io.Writer) {
	fmt.Fprintf(w, "cdb: communications state at %v — %d channel end(s)\n", s.At, len(s.Ends))
	fmt.Fprintf(w, "%-18s %-8s %-6s %-6s %6s %6s %6s  %s\n",
		"CHANNEL", "MACHINE", "LOCAL", "PEER", "SENT", "RECVD", "BUF", "STATE")
	for _, e := range s.Ends {
		fmt.Fprintf(w, "%-18s %-8s %-6d %-6d %6d %6d %6d  %s\n",
			e.Name, e.Machine, e.Local, e.Peer, e.Sent, e.Received, e.Buffered, endState(e))
	}
	if cycles := s.WaitCycles(); len(cycles) > 0 {
		fmt.Fprintf(w, "deadlock: %d waits-for cycle(s):\n", len(cycles))
		for _, c := range cycles {
			parts := make([]string, len(c))
			for i, ep := range c {
				parts[i] = fmt.Sprintf("ep%d", ep)
			}
			fmt.Fprintf(w, "  %s\n", strings.Join(parts, " -> "))
		}
	}
	if len(s.Blocked) > 0 {
		fmt.Fprintf(w, "blocked processes:\n")
		for _, b := range s.Blocked {
			fmt.Fprintf(w, "  %-24s %s\n", b.Name, b.Reason)
		}
	}
}

// String renders the snapshot to a string.
func (s Snapshot) String() string {
	var b strings.Builder
	s.Format(&b)
	return b.String()
}

// JSON renders the snapshot as machine-readable JSON (for tooling
// layered on cdb, the way the original grew filters).
func (s Snapshot) JSON() ([]byte, error) {
	type end struct {
		Name     string `json:"name"`
		Machine  string `json:"machine"`
		Local    int    `json:"local"`
		Peer     int    `json:"peer"`
		Sent     int    `json:"sent"`
		Received int    `json:"received"`
		Buffered int    `json:"buffered"`
		State    string `json:"state"`
	}
	type report struct {
		AtMicros float64           `json:"at_us"`
		Ends     []end             `json:"ends"`
		Cycles   [][]int           `json:"wait_cycles,omitempty"`
		Blocked  map[string]string `json:"blocked,omitempty"`
	}
	r := report{AtMicros: s.At.Microseconds()}
	for _, e := range s.Ends {
		r.Ends = append(r.Ends, end{
			Name: e.Name, Machine: e.Machine,
			Local: int(e.Local), Peer: int(e.Peer),
			Sent: e.Sent, Received: e.Received, Buffered: e.Buffered,
			State: endState(e),
		})
	}
	for _, cyc := range s.WaitCycles() {
		var ints []int
		for _, ep := range cyc {
			ints = append(ints, int(ep))
		}
		r.Cycles = append(r.Cycles, ints)
	}
	if len(s.Blocked) > 0 {
		r.Blocked = map[string]string{}
		for _, b := range s.Blocked {
			r.Blocked[b.Name] = b.Reason
		}
	}
	return json.MarshalIndent(r, "", "  ")
}
