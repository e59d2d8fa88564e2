package fault

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Op is one line of a fault schedule: what to do and when. Line is
// the 1-based schedule line the op came from (0 for ops built in
// code), so validation errors can point at the offending line.
type Op struct {
	At   sim.Duration
	Kind string
	Args []string
	Line int
}

// ParseSchedule reads a fault schedule, one op per line:
//
//	500us link-down 0 1        # fail cube link between clusters 0 and 1
//	2ms   link-up 0 1
//	1ms   degrade 0 2 4.0      # 4x slower wire on cube link 0-2
//	2ms   crash node3
//	5ms   restart node3
//	2ms   crash host0
//	3ms   dfs-down 1           # DFS server outage (host machine alive)
//	4ms   dfs-up 1
//	2ms   partition 0,1|2,3    # cut topology into reachability groups
//	6ms   heal                 # merge the partition back
//	1ms   gray node5 4.0 0.25  # slow ISR 4x, drop 25% of arrivals
//	7ms   ungray node5
//	3ms   rebalance t4 node9   # move vchannel t4 to a lane on node9
//
// A partition lists cluster groups separated by "|"; clusters in
// different groups cannot reach each other until the matching heal.
// Clusters left unlisted form one implicit final group. Degrade
// factors and gray slowdowns lie in [1, 1e6]; degrade 1 restores the
// link.
//
// Blank lines and #-comments are ignored. Times are virtual and must
// be positive, with units ns, us (or µs), ms, or s.
func ParseSchedule(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("fault: line %d: want \"<time> <op> [args...]\"", lineNo)
		}
		at, err := parseDur(fields[0])
		if err != nil {
			return nil, fmt.Errorf("fault: line %d: %v", lineNo, err)
		}
		if at <= 0 {
			return nil, fmt.Errorf("fault: line %d: time must be positive, got %q", lineNo, fields[0])
		}
		ops = append(ops, Op{At: at, Kind: fields[1], Args: fields[2:], Line: lineNo})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// ParseDuration parses a schedule-DSL duration like "500us", "2ms",
// "1.5s", or "250ns" (exported for command-line flags that share the
// DSL's syntax, e.g. `vorx chaos -detect 2ms`).
func ParseDuration(s string) (sim.Duration, error) { return parseDur(s) }

// parseDur parses "500us", "2ms", "1.5s", "250ns".
func parseDur(s string) (sim.Duration, error) {
	unit := sim.Duration(0)
	num := s
	for _, u := range []struct {
		suffix string
		d      sim.Duration
	}{
		{"ns", sim.Nanosecond}, {"µs", sim.Microsecond}, {"us", sim.Microsecond},
		{"ms", sim.Millisecond}, {"s", sim.Second},
	} {
		if strings.HasSuffix(s, u.suffix) {
			unit = u.d
			num = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	if unit == 0 {
		return 0, fmt.Errorf("duration %q needs a unit (ns/us/ms/s)", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	// Converting a float outside int64 (or NaN) yields an arbitrary
	// value, so reject before converting; !(ns < 2^63) also catches NaN.
	ns := f * float64(unit)
	if !(ns < math.MaxInt64) {
		return 0, fmt.Errorf("duration %q out of range", s)
	}
	return sim.Duration(ns), nil
}

// parseMachine parses a "node3"/"host0" target.
func parseMachine(a string) (string, int, error) {
	for _, class := range []string{"node", "host"} {
		if strings.HasPrefix(a, class) {
			i, err := strconv.Atoi(a[len(class):])
			if err != nil || i < 0 {
				return "", 0, fmt.Errorf("bad machine %q", a)
			}
			return class, i, nil
		}
	}
	return "", 0, fmt.Errorf("bad machine %q (want nodeN or hostN)", a)
}

// checkMachine verifies the target machine exists (when a system is
// bound; a standalone engine skips the bounds check).
func (e *Engine) checkMachine(class string, i int) error {
	if e.sys == nil {
		return nil
	}
	n := len(e.sys.Nodes())
	if class == "host" {
		n = len(e.sys.Hosts())
	}
	if i >= n {
		return fmt.Errorf("no %s%d in this system (%d %ss)", class, i, n, class)
	}
	return nil
}

// checkLink verifies clusters a and b exist and are cube neighbours.
func (e *Engine) checkLink(a, b topo.ClusterID) error {
	if e.sys == nil {
		return nil
	}
	tp := e.sys.Topo
	n := topo.ClusterID(tp.Clusters())
	for _, c := range [...]topo.ClusterID{a, b} {
		if c < 0 || c >= n {
			return fmt.Errorf("no cluster %d in this system (%d clusters)", c, n)
		}
	}
	if !tp.HasLink(a, b) {
		return fmt.Errorf("no cube link between clusters %d and %d", a, b)
	}
	return nil
}

// maxSlowdown caps degrade factors and gray slowdowns. hpc and netif
// scale a wire or ISR cost as float64(d) * factor and convert back to
// sim.Duration; at this cap a cost would have to exceed 2.5 hours to
// overflow, and a 53us hop already takes 53s.
const maxSlowdown = 1e6

// parseSlowdown parses a degrade factor or gray slowdown, which must
// be finite and lie in [1, maxSlowdown].
func parseSlowdown(what, arg string) (float64, error) {
	f, err := strconv.ParseFloat(arg, 64)
	if err != nil || !(f >= 1 && f <= maxSlowdown) { // NaN fails both
		return 0, fmt.Errorf("bad %s %q (want 1 <= %s <= %g)", what, arg, what, maxSlowdown)
	}
	return f, nil
}

// parseGroups parses a partition spec like "0,1|2,3": groups of
// cluster IDs separated by "|".
func parseGroups(s string) ([][]topo.ClusterID, error) {
	var groups [][]topo.ClusterID
	seen := map[topo.ClusterID]bool{}
	for _, gs := range strings.Split(s, "|") {
		if gs == "" {
			return nil, fmt.Errorf("empty group in partition %q", s)
		}
		var g []topo.ClusterID
		for _, cs := range strings.Split(gs, ",") {
			v, err := strconv.Atoi(cs)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad cluster %q in partition %q", cs, s)
			}
			c := topo.ClusterID(v)
			if seen[c] {
				return nil, fmt.Errorf("cluster %d listed twice in partition %q", v, s)
			}
			seen[c] = true
			g = append(g, c)
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// Apply validates the whole schedule, then arms every op on the
// engine's clock. The engine must already be bound to a system (and
// to a DFS service if the schedule uses dfs-down/dfs-up). Validation
// rejects unknown targets and overlapping entries for the same target
// — a link failed twice without a repair between, a machine crashed
// while already down, nested partitions — before anything is
// scheduled, so a bad schedule never half-applies.
func (e *Engine) Apply(ops []Op) error {
	if err := e.validate(ops); err != nil {
		return err
	}
	for i, op := range ops {
		if err := e.apply(op); err != nil {
			return fmt.Errorf("fault: op %d (%s): %w", i+1, op.Kind, err)
		}
	}
	return nil
}

func (e *Engine) apply(op Op) error {
	argInts := func(n int) ([]int, error) {
		if len(op.Args) < n {
			return nil, fmt.Errorf("want %d args, got %d", n, len(op.Args))
		}
		out := make([]int, n)
		for i := 0; i < n; i++ {
			v, err := strconv.Atoi(op.Args[i])
			if err != nil {
				return nil, fmt.Errorf("bad arg %q", op.Args[i])
			}
			out[i] = v
		}
		return out, nil
	}
	switch op.Kind {
	case "link-down", "link-up":
		v, err := argInts(2)
		if err != nil {
			return err
		}
		a, b := topo.ClusterID(v[0]), topo.ClusterID(v[1])
		if err := e.checkLink(a, b); err != nil {
			return err
		}
		if op.Kind == "link-down" {
			e.CubeLinkDownAt(op.At, a, b)
		} else {
			e.CubeLinkUpAt(op.At, a, b)
		}
	case "degrade":
		v, err := argInts(2)
		if err != nil {
			return err
		}
		if len(op.Args) != 3 {
			return fmt.Errorf("want: degrade <a> <b> <factor>")
		}
		f, err := parseSlowdown("factor", op.Args[2])
		if err != nil {
			return err
		}
		a, b := topo.ClusterID(v[0]), topo.ClusterID(v[1])
		if err := e.checkLink(a, b); err != nil {
			return err
		}
		e.DegradeCubeLinkAt(op.At, a, b, f)
	case "partition":
		if len(op.Args) != 1 {
			return fmt.Errorf("want: partition <a,b|c,d|...>")
		}
		groups, err := parseGroups(op.Args[0])
		if err != nil {
			return err
		}
		if e.sys != nil {
			n := e.sys.Topo.Clusters()
			if n < 2 {
				return fmt.Errorf("partition needs a multi-cluster topology")
			}
			listed := 0
			for _, g := range groups {
				for _, c := range g {
					if int(c) >= n {
						return fmt.Errorf("no cluster %d in this system (%d clusters)", c, n)
					}
					listed++
				}
			}
			if len(groups) == 1 && listed >= n {
				return fmt.Errorf("partition %q has only one group", op.Args[0])
			}
		}
		e.PartitionAt(op.At, groups)
	case "heal":
		if len(op.Args) != 0 {
			return fmt.Errorf("heal takes no args")
		}
		e.HealAt(op.At)
	case "gray":
		if len(op.Args) != 3 {
			return fmt.Errorf("want: gray <nodeN|hostN> <slowdown> <dropProb>")
		}
		class, i, err := parseMachine(op.Args[0])
		if err != nil {
			return err
		}
		if err := e.checkMachine(class, i); err != nil {
			return err
		}
		slow, err := parseSlowdown("slowdown", op.Args[1])
		if err != nil {
			return err
		}
		drop, err := strconv.ParseFloat(op.Args[2], 64)
		if err != nil || !(drop >= 0 && drop < 1) { // NaN fails both
			return fmt.Errorf("bad drop probability %q (want 0 <= p < 1)", op.Args[2])
		}
		if class == "node" {
			e.GrayNodeAt(op.At, i, slow, drop)
		} else {
			e.GrayHostAt(op.At, i, slow, drop)
		}
	case "ungray":
		if len(op.Args) != 1 {
			return fmt.Errorf("want: ungray <nodeN|hostN>")
		}
		class, i, err := parseMachine(op.Args[0])
		if err != nil {
			return err
		}
		if err := e.checkMachine(class, i); err != nil {
			return err
		}
		if class == "node" {
			e.UngrayNodeAt(op.At, i)
		} else {
			e.UngrayHostAt(op.At, i)
		}
	case "crash", "restart":
		if len(op.Args) != 1 {
			return fmt.Errorf("want one arg like node3 or host0")
		}
		class, i, err := parseMachine(op.Args[0])
		if err != nil {
			return err
		}
		if err := e.checkMachine(class, i); err != nil {
			return err
		}
		switch {
		case op.Kind == "crash" && class == "node":
			e.CrashNodeAt(op.At, i)
		case op.Kind == "crash" && class == "host":
			e.CrashHostAt(op.At, i)
		case op.Kind == "restart" && class == "node":
			e.RestartNodeAt(op.At, i)
		default:
			e.RestartHostAt(op.At, i)
		}
	case "rebalance":
		if len(op.Args) != 2 {
			return fmt.Errorf("want: rebalance <vchan> <nodeN>")
		}
		if e.vb == nil {
			return fmt.Errorf("no vchan balancer bound (BindVChan)")
		}
		name := op.Args[0]
		class, i, err := parseMachine(op.Args[1])
		if err != nil {
			return err
		}
		if class != "node" {
			return fmt.Errorf("rebalance target must be a nodeN (lanes live on nodes)")
		}
		if err := e.checkMachine(class, i); err != nil {
			return err
		}
		if !e.vb.HasVChan(name) {
			return fmt.Errorf("unknown vchannel %q", name)
		}
		e.RebalanceAt(op.At, name, i)
	case "dfs-down", "dfs-up":
		v, err := argInts(1)
		if err != nil {
			return err
		}
		if e.fs == nil {
			return fmt.Errorf("no DFS service bound")
		}
		if v[0] < 0 || v[0] >= e.fs.NumHosts() {
			return fmt.Errorf("no DFS server on host%d (%d hosts)", v[0], e.fs.NumHosts())
		}
		if op.Kind == "dfs-down" {
			e.DFSDownAt(op.At, v[0])
		} else {
			e.DFSUpAt(op.At, v[0])
		}
	default:
		return fmt.Errorf("unknown op %q", op.Kind)
	}
	return nil
}

// validate walks the schedule in virtual-time order and rejects
// overlapping entries for the same target before anything is armed:
// a link must come back up before it can fail again, a machine must
// restart before it can crash again, a gray machine must be restored
// before it can degrade again, and partitions cannot nest (a heal must
// separate them). Two ops for the same target at the same instant are
// rejected as ambiguous, and explicit link ops are rejected while a
// partition owns the cut-set (the heal could not tell whose outage a
// down link is).
func (e *Engine) validate(ops []Op) error {
	type ent struct {
		at  sim.Duration
		idx int // 1-based op number, for error messages
		op  Op
	}
	ordered := make([]ent, 0, len(ops))
	for i, op := range ops {
		ordered = append(ordered, ent{at: op.At, idx: i + 1, op: op})
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].at < ordered[j].at })

	bad := func(en ent, format string, args ...any) error {
		where := fmt.Sprintf("op %d", en.idx)
		if en.op.Line > 0 {
			where = fmt.Sprintf("line %d", en.op.Line)
		}
		return fmt.Errorf("fault: %s (%s at %v): %s", where, en.op.Kind, en.at, fmt.Sprintf(format, args...))
	}
	linkDown := map[[2]int]bool{}       // schedule-owned link outages
	machDown := map[string]bool{}       // schedule-owned crashes
	machGray := map[string]bool{}       // schedule-owned gray degradations
	lastAt := map[string]sim.Duration{} // target -> time of last op on it
	partActive := false
	var partAt sim.Duration
	var partGroups [][]topo.ClusterID // groups of the active partition

	touch := func(en ent, target string) error {
		if at, ok := lastAt[target]; ok && at == en.at {
			return bad(en, "second op for %s at the same instant (ambiguous order)", target)
		}
		lastAt[target] = en.at
		return nil
	}
	linkKey := func(args []string) ([2]int, string, bool) {
		if len(args) < 2 {
			return [2]int{}, "", false
		}
		a, err1 := strconv.Atoi(args[0])
		b, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return [2]int{}, "", false
		}
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}, fmt.Sprintf("link %d-%d", a, b), true
	}

	for _, en := range ordered {
		switch en.op.Kind {
		case "link-down", "link-up", "degrade":
			key, target, ok := linkKey(en.op.Args)
			if !ok {
				continue // apply() reports the malformed args
			}
			if err := touch(en, target); err != nil {
				return err
			}
			switch en.op.Kind {
			case "link-down":
				if partActive {
					return bad(en, "link op while a partition is active (since %v); heal first", partAt)
				}
				if linkDown[key] {
					return bad(en, "%s is already down (overlapping outage; add a link-up between)", target)
				}
				linkDown[key] = true
			case "link-up":
				if partActive {
					return bad(en, "link op while a partition is active (since %v); heal first", partAt)
				}
				delete(linkDown, key)
			}
		case "crash", "restart":
			if len(en.op.Args) != 1 {
				continue
			}
			target := en.op.Args[0]
			if err := touch(en, target); err != nil {
				return err
			}
			if en.op.Kind == "crash" {
				if machDown[target] {
					return bad(en, "%s is already crashed (overlapping crash; add a restart between)", target)
				}
				machDown[target] = true
			} else {
				delete(machDown, target)
			}
		case "gray", "ungray":
			if len(en.op.Args) < 1 {
				continue
			}
			target := "gray " + en.op.Args[0]
			if err := touch(en, target); err != nil {
				return err
			}
			if en.op.Kind == "gray" {
				if machGray[en.op.Args[0]] {
					return bad(en, "%s is already gray (overlapping degradation; add an ungray between)", en.op.Args[0])
				}
				machGray[en.op.Args[0]] = true
			} else {
				delete(machGray, en.op.Args[0])
			}
		case "partition", "heal":
			if err := touch(en, "partition"); err != nil {
				return err
			}
			if en.op.Kind == "partition" {
				if partActive {
					return bad(en, "partition while one is already active (since %v); heal first", partAt)
				}
				partActive = true
				partAt = en.at
				if len(en.op.Args) == 1 {
					partGroups, _ = parseGroups(en.op.Args[0]) // apply() reports a bad spec
				}
			} else {
				if !partActive {
					return bad(en, "heal with no active partition")
				}
				partActive = false
				partGroups = nil
			}
		case "rebalance":
			if len(en.op.Args) != 2 || e.vb == nil {
				continue // apply() reports the malformed op
			}
			name := en.op.Args[0]
			if err := touch(en, "vchan "+name); err != nil {
				return err
			}
			if !e.vb.HasVChan(name) {
				return bad(en, "unknown vchannel %q", name)
			}
			class, i, err := parseMachine(en.op.Args[1])
			if err != nil || class != "node" {
				continue // apply() reports the bad target
			}
			if err := e.checkMachine(class, i); err != nil {
				continue
			}
			target := en.op.Args[1]
			if machDown[target] {
				return bad(en, "rebalance targets crashed %s (restart it first)", target)
			}
			if e.vb.Started() && !e.vb.IsBroker(i) {
				return bad(en, "%s hosts no vchan lanes (lane nodes: %v)", target, e.vb.BrokerNodes())
			}
			if partActive && e.sys != nil {
				tc := e.sys.Topo.AttachmentOf(e.sys.Node(i).EP).Cluster
				bc := e.sys.Topo.AttachmentOf(e.vb.Endpoint()).Cluster
				if groupOf(partGroups, tc) != groupOf(partGroups, bc) {
					return bad(en, "rebalance targets %s across the active partition cut (since %v); heal first",
						target, partAt)
				}
			}
		}
	}
	return nil
}

// groupOf returns the partition-group index holding cluster c;
// clusters left unlisted share the implicit final group.
func groupOf(groups [][]topo.ClusterID, c topo.ClusterID) int {
	for i, g := range groups {
		for _, gc := range g {
			if gc == c {
				return i
			}
		}
	}
	return len(groups)
}
