package fault

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"hpcvorx/internal/core"
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

// action is one schedule op resolved against the bound system: its
// arguments parsed and its targets looked up, once, before the
// schedule is validated and armed.
type action struct {
	Op
	idx    int                // 1-based op number, for error messages
	m      *core.Machine      // crash, restart, gray, ungray, rebalance
	link   [2]topo.ClusterID  // link-down, link-up, degrade: as written
	groups [][]topo.ClusterID // partition
	slow   float64            // degrade factor or gray slowdown
	drop   float64            // gray drop probability
	host   int                // dfs-down, dfs-up
	vchan  string             // rebalance
}

// Apply is the one way to schedule faults. It resolves every op
// against the bound system (parses its arguments and looks up its
// machine, link, partition groups, DFS host or vchannel), validates
// the resolved schedule as a whole (rejecting overlapping entries for
// the same target: a link failed twice without a repair between, a
// machine crashed while already down, nested partitions), and only if
// both steps found no error arms every op on the engine's clock at its
// absolute virtual time, in schedule order; a rejected schedule arms
// nothing. The engine must already be bound to a system (and to a DFS
// service or vchan balancer if the schedule uses dfs-down/dfs-up or
// rebalance). One call is one schedule: its ops are checked against
// each other, not against earlier calls.
func (e *Engine) Apply(ops []Op) error {
	if e.sys == nil {
		return fmt.Errorf("fault: no system bound (Bind)")
	}
	acts := make([]action, len(ops))
	for i, op := range ops {
		a, err := e.resolve(op)
		if err != nil {
			return fmt.Errorf("fault: op %d (%s): %w", i+1, op.Kind, err)
		}
		a.idx = i + 1
		acts[i] = a
	}
	if err := e.validate(acts); err != nil {
		return err
	}
	for i := range acts {
		e.arm(&acts[i])
	}
	return nil
}

// resolve parses op's arguments and looks up its targets.
func (e *Engine) resolve(op Op) (action, error) {
	a := action{Op: op}
	args := op.Args
	var err error
	switch op.Kind {
	case "link-down", "link-up":
		if len(args) != 2 {
			return a, fmt.Errorf("want: %s <a> <b>", op.Kind)
		}
		a.link, err = e.link(args)
	case "degrade":
		if len(args) != 3 {
			return a, fmt.Errorf("want: degrade <a> <b> <factor>")
		}
		if a.link, err = e.link(args); err != nil {
			return a, err
		}
		a.slow, err = parseSlowdown("factor", args[2])
	case "partition":
		if len(args) != 1 {
			return a, fmt.Errorf("want: partition <a,b|c,d|...>")
		}
		a.groups, err = e.groups(args[0])
	case "heal":
		if len(args) != 0 {
			return a, fmt.Errorf("heal takes no args")
		}
	case "gray":
		if len(args) != 3 {
			return a, fmt.Errorf("want: gray <nodeN|hostN> <slowdown> <dropProb>")
		}
		if a.m, err = e.machine(args[0]); err != nil {
			return a, err
		}
		if a.slow, err = parseSlowdown("slowdown", args[1]); err != nil {
			return a, err
		}
		a.drop, err = strconv.ParseFloat(args[2], 64)
		if err != nil || !(a.drop >= 0 && a.drop < 1) { // NaN fails both
			return a, fmt.Errorf("bad drop probability %q (want 0 <= p < 1)", args[2])
		}
	case "ungray":
		if len(args) != 1 {
			return a, fmt.Errorf("want: ungray <nodeN|hostN>")
		}
		a.m, err = e.machine(args[0])
	case "crash", "restart":
		if len(args) != 1 {
			return a, fmt.Errorf("want one arg like node3 or host0")
		}
		a.m, err = e.machine(args[0])
	case "rebalance":
		if len(args) != 2 {
			return a, fmt.Errorf("want: rebalance <vchan> <nodeN>")
		}
		if e.vb == nil {
			return a, fmt.Errorf("no vchan balancer bound (BindVChan)")
		}
		if a.m, err = e.machine(args[1]); err != nil {
			return a, err
		}
		if a.m.Host {
			return a, fmt.Errorf("rebalance target must be a nodeN (lanes live on nodes)")
		}
		if a.vchan = args[0]; !e.vb.HasVChan(a.vchan) {
			return a, fmt.Errorf("unknown vchannel %q", a.vchan)
		}
	case "dfs-down", "dfs-up":
		if len(args) != 1 {
			return a, fmt.Errorf("want: %s <host>", op.Kind)
		}
		if a.host, err = strconv.Atoi(args[0]); err != nil {
			return a, fmt.Errorf("bad arg %q", args[0])
		}
		if e.fs == nil {
			return a, fmt.Errorf("no DFS service bound")
		}
		if a.host < 0 || a.host >= e.fs.NumHosts() {
			return a, fmt.Errorf("no DFS server on host%d (%d hosts)", a.host, e.fs.NumHosts())
		}
	default:
		return a, fmt.Errorf("unknown op %q", op.Kind)
	}
	return a, err
}

// machine resolves a "node3"/"host0" target to its machine.
func (e *Engine) machine(arg string) (*core.Machine, error) {
	for _, class := range []string{"node", "host"} {
		if !strings.HasPrefix(arg, class) {
			continue
		}
		i, err := strconv.Atoi(arg[len(class):])
		if err != nil || i < 0 {
			return nil, fmt.Errorf("bad machine %q", arg)
		}
		ms := e.sys.Nodes()
		if class == "host" {
			ms = e.sys.Hosts()
		}
		if i >= len(ms) {
			return nil, fmt.Errorf("no %s%d in this system (%d %ss)", class, i, len(ms), class)
		}
		return ms[i], nil
	}
	return nil, fmt.Errorf("bad machine %q (want nodeN or hostN)", arg)
}

// link resolves the cube link between the clusters its first two args
// name, kept in the order written. The caller checks the arg count.
func (e *Engine) link(args []string) ([2]topo.ClusterID, error) {
	var l [2]topo.ClusterID
	for i := range l {
		v, err := strconv.Atoi(args[i])
		if err != nil {
			return l, fmt.Errorf("bad arg %q", args[i])
		}
		l[i] = topo.ClusterID(v)
	}
	n := topo.ClusterID(e.sys.Topo.Clusters())
	for _, c := range l {
		if c < 0 || c >= n {
			return l, fmt.Errorf("no cluster %d in this system (%d clusters)", c, n)
		}
	}
	if !e.sys.Topo.HasLink(l[0], l[1]) {
		return l, fmt.Errorf("no cube link between clusters %d and %d", l[0], l[1])
	}
	return l, nil
}

// groups resolves a partition spec like "0,1|2,3": groups of cluster
// IDs separated by "|", each cluster of this system listed at most
// once, and at least two groups counting the implicit final one.
func (e *Engine) groups(spec string) ([][]topo.ClusterID, error) {
	n := e.sys.Topo.Clusters()
	if n < 2 {
		return nil, fmt.Errorf("partition needs a multi-cluster topology")
	}
	var groups [][]topo.ClusterID
	seen := map[topo.ClusterID]bool{}
	for _, gs := range strings.Split(spec, "|") {
		if gs == "" {
			return nil, fmt.Errorf("empty group in partition %q", spec)
		}
		var g []topo.ClusterID
		for _, cs := range strings.Split(gs, ",") {
			v, err := strconv.Atoi(cs)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad cluster %q in partition %q", cs, spec)
			}
			if v >= n {
				return nil, fmt.Errorf("no cluster %d in this system (%d clusters)", v, n)
			}
			c := topo.ClusterID(v)
			if seen[c] {
				return nil, fmt.Errorf("cluster %d listed twice in partition %q", v, spec)
			}
			seen[c] = true
			g = append(g, c)
		}
		groups = append(groups, g)
	}
	if len(groups) == 1 && len(seen) == n {
		return nil, fmt.Errorf("partition %q has only one group", spec)
	}
	return groups, nil
}

// validate walks the resolved schedule in virtual-time order and
// rejects overlapping entries for the same target: a link must come
// back up before it can fail again, a machine must restart before it
// can crash again, a gray machine must be restored before it can
// degrade again, and partitions cannot nest (a heal must separate
// them). Two ops for the same target at the same instant are rejected
// as ambiguous, and explicit link ops are rejected while a partition
// owns the cut-set (the heal could not tell whose outage a down link
// is). Targets are the resolved machines and sorted link pairs, so
// "node2" and "node02" are one target.
func (e *Engine) validate(acts []action) error {
	ordered := make([]*action, len(acts))
	for i := range acts {
		ordered[i] = &acts[i]
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })

	bad := func(a *action, format string, args ...any) error {
		where := fmt.Sprintf("op %d", a.idx)
		if a.Line > 0 {
			where = fmt.Sprintf("line %d", a.Line)
		}
		return fmt.Errorf("fault: %s (%s at %v): %s", where, a.Kind, a.At, fmt.Sprintf(format, args...))
	}
	linkDown := map[[2]topo.ClusterID]bool{} // schedule-owned link outages
	machDown := map[*core.Machine]bool{}     // schedule-owned crashes
	machGray := map[*core.Machine]bool{}     // schedule-owned gray degradations
	lastAt := map[string]sim.Duration{}      // target -> time of last op on it
	var partAt sim.Duration
	var partGroups [][]topo.ClusterID // groups of the active partition; nil when none

	touch := func(a *action, target string) error {
		if at, ok := lastAt[target]; ok && at == a.At {
			return bad(a, "second op for %s at the same instant (ambiguous order)", target)
		}
		lastAt[target] = a.At
		return nil
	}

	for _, a := range ordered {
		switch a.Kind {
		case "link-down", "link-up", "degrade":
			key := a.link
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			target := fmt.Sprintf("link %d-%d", key[0], key[1])
			if err := touch(a, target); err != nil {
				return err
			}
			if a.Kind == "degrade" {
				break
			}
			if partGroups != nil {
				return bad(a, "link op while a partition is active (since %v); heal first", partAt)
			}
			if a.Kind == "link-up" {
				delete(linkDown, key)
			} else if linkDown[key] {
				return bad(a, "%s is already down (overlapping outage; add a link-up between)", target)
			} else {
				linkDown[key] = true
			}
		case "crash", "restart":
			if err := touch(a, a.m.Name()); err != nil {
				return err
			}
			if a.Kind == "restart" {
				delete(machDown, a.m)
			} else if machDown[a.m] {
				return bad(a, "%s is already crashed (overlapping crash; add a restart between)", a.m.Name())
			} else {
				machDown[a.m] = true
			}
		case "gray", "ungray":
			if err := touch(a, "gray "+a.m.Name()); err != nil {
				return err
			}
			if a.Kind == "ungray" {
				delete(machGray, a.m)
			} else if machGray[a.m] {
				return bad(a, "%s is already gray (overlapping degradation; add an ungray between)", a.m.Name())
			} else {
				machGray[a.m] = true
			}
		case "partition", "heal":
			if err := touch(a, "partition"); err != nil {
				return err
			}
			if a.Kind == "heal" {
				if partGroups == nil {
					return bad(a, "heal with no active partition")
				}
				partGroups = nil
			} else if partGroups != nil {
				return bad(a, "partition while one is already active (since %v); heal first", partAt)
			} else {
				partAt, partGroups = a.At, a.groups
			}
		case "rebalance":
			if err := touch(a, "vchan "+a.vchan); err != nil {
				return err
			}
			if machDown[a.m] {
				return bad(a, "rebalance targets crashed %s (restart it first)", a.m.Name())
			}
			if e.vb.Started() && !e.vb.IsBroker(a.m.Index) {
				return bad(a, "%s hosts no vchan lanes (lane nodes: %v)", a.m.Name(), e.vb.BrokerNodes())
			}
			if partGroups != nil {
				tc := e.sys.Topo.AttachmentOf(a.m.EP).Cluster
				bc := e.sys.Topo.AttachmentOf(e.vb.Endpoint()).Cluster
				if groupOf(partGroups, tc) != groupOf(partGroups, bc) {
					return bad(a, "rebalance targets %s across the active partition cut (since %v); heal first",
						a.m.Name(), partAt)
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
