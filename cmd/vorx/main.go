// Command vorx builds a simulated HPC/VORX installation and runs
// quick demonstrations against it.
//
// Usage:
//
//	vorx topo -hosts 10 -nodes 70     # describe the interconnect
//	vorx ping -size 64 -rounds 1000   # channel latency benchmark
//	vorx download -nodes 70 -tree     # program download timing
//	vorx alloc                        # allocation-policy walkthrough
//	vorx trace -demo heal -out t.json # any demo under the unified tracer
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"hpcvorx/internal/core"
	"hpcvorx/internal/dfs"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/obs"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/stub"
	"hpcvorx/internal/super"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/verify"
	"hpcvorx/internal/vorxbench"
	"hpcvorx/internal/workload"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: vorx <command> [flags]

commands:
  topo      describe the HPC interconnect for a machine size
  ping      run the channel latency benchmark (Table 2's workload)
  download  time program download to the node pool (paper §3.3)
  alloc     demonstrate the allocation policies (paper §3.1)
  links     run an all-to-one workload and show the hottest links
  mix       run a mixed workload and print the message-trace summary
  trace     run a demo with unified tracing on; emit Chrome JSON,
            a flight-recorder dump, and the metrics table
  analyze   latency observatory: attribute each write's virtual-time
            latency to wire/queue/interrupt/busy/retransmit/migration
            (-in replays a flight dump offline; -demo runs live with
            the series sampler, -csv/-openmetrics exports)
  chaos     replay a fault schedule and print the recovery report
            (-verify attaches the invariant checker; -sweep N replays
            N seeded partition/gray/crash schedules through it;
            -shardsweep N byte-diffs sharded vs serial outcomes)
  heal      crash a supervised node and watch checkpoint/restart heal it
            (-fence enables partition-tolerant quorum + fencing)
  vchan     multiplex vchannels over broker lanes and live-migrate one
            mid-stream (-auto enables load-driven rebalancing)

chaos -shardsweep runs a simulation split over parallel shards
(-shards N, conservative lookahead); topo -shards N prints the
partition; the other commands run the serial kernel
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "topo":
		cmdTopo(os.Args[2:])
	case "ping":
		runPing(os.Args[2:], nil)
	case "download":
		cmdDownload(os.Args[2:])
	case "alloc":
		cmdAlloc(os.Args[2:])
	case "links":
		runLinks(os.Args[2:], nil)
	case "mix":
		runMix(os.Args[2:], nil)
	case "trace":
		cmdTrace(os.Args[2:])
	case "analyze":
		cmdAnalyze(os.Args[2:])
	case "chaos":
		runChaos(os.Args[2:], nil)
	case "heal":
		runHeal(os.Args[2:], nil)
	case "vchan":
		runVChan(os.Args[2:], nil)
	default:
		usage()
	}
}

// commFlag registers -comm on fs and returns a resolver to call after
// parsing. The default is the classic stop-and-wait stack, so every
// command's output is unchanged unless -comm pipelined is asked for.
func commFlag(fs *flag.FlagSet) func() core.CommProfile {
	name := fs.String("comm", "classic", "communication profile: classic or pipelined")
	return func() core.CommProfile {
		switch *name {
		case "classic":
			return core.Classic()
		case "pipelined":
			return core.Pipelined()
		default:
			fmt.Fprintf(os.Stderr, "vorx: unknown -comm profile %q (want classic or pipelined)\n", *name)
			os.Exit(2)
			panic("unreachable")
		}
	}
}

// atLeast exits with a usage error when flag -name of cmd is below min.
func atLeast(cmd, name string, v, min int) {
	if v < min {
		fmt.Fprintf(os.Stderr, "vorx: %s -%s %d: want at least %d\n", cmd, name, v, min)
		os.Exit(2)
	}
}

// traceCtx carries the `vorx trace` options into a demo run. A nil
// *traceCtx leaves the system tracer disabled, so the plain commands
// are byte-identical to their untraced behaviour.
type traceCtx struct {
	out     string // Chrome trace_event JSON path
	flight  string // flight-recorder text path
	ring    int    // bounded-memory mode: keep newest N events
	metrics bool   // print the metrics table

	// Latency-observatory options (`vorx analyze -demo ...`). The
	// analyzer and sampler ride the tracer's forward sink: pure
	// host-side observers, so armed runs stay byte-identical to
	// plain traced runs.
	analyze    bool
	series     sim.Duration // sampling period (0 = sampler default)
	seriesRing int          // keep newest N series samples
	csv        string       // series CSV path
	om         string       // OpenMetrics registry dump path
	top        int          // slowest-writes breakdown depth
	an         *obs.Analyzer
	smp        *obs.Sampler
}

// arm enables tracing on a freshly built system. Call before any
// traffic runs.
func (tc *traceCtx) arm(sys *core.System) {
	if tc == nil {
		return
	}
	sys.Trace.Enable()
	if tc.ring > 0 {
		sys.Trace.SetLimit(tc.ring)
	}
	if tc.analyze {
		tc.an = obs.NewAnalyzer()
		tc.smp = obs.NewSampler(sys.Trace.Metrics(), tc.series)
		if tc.seriesRing > 0 {
			tc.smp.SetLimit(tc.seriesRing)
		}
		sys.Trace.SetForward(obs.Tee(tc.an, tc.smp))
	}
}

// finish writes the requested trace artifacts and the metrics table.
func (tc *traceCtx) finish(sys *core.System) {
	if tc == nil {
		return
	}
	fmt.Println()
	fmt.Printf("trace: %d events recorded", sys.Trace.Len())
	if d := sys.Trace.Dropped(); d > 0 {
		fmt.Printf(" (%d older events dropped by -ring %d)", d, tc.ring)
	}
	fmt.Println()
	if tc.out != "" {
		f, err := os.Create(tc.out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vorx:", err)
			os.Exit(1)
		}
		if err := sys.Trace.WriteChrome(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vorx:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: Chrome trace_event JSON -> %s (open in Perfetto or chrome://tracing)\n", tc.out)
	}
	if tc.flight != "" {
		f, err := os.Create(tc.flight)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vorx:", err)
			os.Exit(1)
		}
		if err := sys.Trace.WriteFlight(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vorx:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: flight recorder -> %s\n", tc.flight)
	}
	if tc.metrics {
		fmt.Println("\nmetrics at quiesce:")
		sys.Trace.Metrics().WriteTable(os.Stdout)
	}
	if tc.analyze {
		tc.smp.Flush(sys.K.Now())
		fmt.Println()
		rep := tc.an.Report()
		rep.WriteTable(os.Stdout)
		rep.WriteTop(os.Stdout, tc.top)
		fmt.Printf("series: %d samples at %v period, %d instruments\n",
			tc.smp.Len(), tc.smp.Period(), len(sys.Trace.Metrics().Snapshot()))
		if tc.csv != "" {
			writeArtifact(tc.csv, "metrics series CSV", tc.smp.WriteCSV)
		}
		if tc.om != "" {
			writeArtifact(tc.om, "OpenMetrics registry", func(w io.Writer) error {
				return obs.WriteOpenMetrics(w, sys.Trace.Metrics())
			})
		}
		if err := rep.Check(); err != nil {
			fmt.Fprintln(os.Stderr, "vorx:", err)
			os.Exit(1)
		}
	}
}

// writeArtifact creates path and streams one export into it.
func writeArtifact(path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	if err := write(f); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	// Stderr, so stdout stays a pure function of virtual time even
	// when artifact paths differ between otherwise identical runs.
	fmt.Fprintf(os.Stderr, "analyze: %s -> %s\n", what, path)
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	demo := fs.String("demo", "mix", "demo to trace: mix, ping, links, chaos, heal, vchan")
	out := fs.String("out", "", "write Chrome trace_event JSON here")
	flight := fs.String("flight", "", "write the flight-recorder text dump here")
	ring := fs.Int("ring", 0, "bounded memory: keep only the newest N events (0 = unbounded)")
	metrics := fs.Bool("metrics", true, "print the metrics table after the run")
	fs.Parse(args)
	tc := &traceCtx{out: *out, flight: *flight, ring: *ring, metrics: *metrics}
	rest := fs.Args()
	switch *demo {
	case "mix":
		runMix(rest, tc)
	case "ping":
		runPing(rest, tc)
	case "links":
		runLinks(rest, tc)
	case "chaos":
		runChaos(rest, tc)
	case "heal":
		runHeal(rest, tc)
	case "vchan":
		runVChan(rest, tc)
	default:
		fmt.Fprintf(os.Stderr, "vorx trace: unknown demo %q (want mix, ping, links, chaos, heal, vchan)\n", *demo)
		os.Exit(2)
	}
}

func cmdAlloc(args []string) {
	fs := flag.NewFlagSet("alloc", flag.ExitOnError)
	fs.Parse(args)
	vorxbench.E9Allocation().Format(os.Stdout)
}

func cmdTopo(args []string) {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	hosts := fs.Int("hosts", 10, "host workstations")
	nodes := fs.Int("nodes", 70, "processing nodes")
	shards := fs.Int("shards", 0, "also print the cluster-to-shard partition for this shard count (0 = skip)")
	fs.Parse(args)
	tp, err := core.Config{Hosts: *hosts, Nodes: *nodes}.Topology()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	fmt.Println(tp)
	fmt.Printf("figure 1 layout: %d workstations + %d processing nodes on one HPC\n", *hosts, *nodes)
	fmt.Println()
	fmt.Println("        workstations                 processing node pool")
	fmt.Println("   [ws0] [ws1] ... [wsH]        [n0] [n1] [n2] ...... [nN]")
	fmt.Println("      \\    |    /                  \\   |    |        /")
	fmt.Println("   +--------------------- HPC interconnect ---------------+")
	fmt.Printf("   |  %d self-routing 12-port clusters, dim-%d incomplete   \n", tp.Clusters(), tp.Dimension())
	fmt.Println("   |  hypercube, 160 Mbit/s ports, hardware flow control   ")
	fmt.Println("   +-------------------------------------------------------+")
	for c := 0; c < tp.Clusters() && c < 8; c++ {
		fmt.Printf("cluster %d: neighbors %v, %d endpoint port(s)\n",
			c, tp.Neighbors(topo.ClusterID(c)), len(tp.EndpointsOn(topo.ClusterID(c))))
	}
	if tp.Clusters() > 8 {
		fmt.Printf("... and %d more clusters\n", tp.Clusters()-8)
	}
	if *shards > 0 {
		part := topo.PartitionClusters(tp, *shards)
		fmt.Printf("\nsharded simulation partition (-shards %d -> %d):\n", *shards, part.Shards())
		for s := 0; s < part.Shards(); s++ {
			var lo, hi = -1, -1
			for c := 0; c < tp.Clusters(); c++ {
				if part.OfCluster(topo.ClusterID(c)) == s {
					if lo < 0 {
						lo = c
					}
					hi = c
				}
			}
			fmt.Printf("  shard %d: clusters %d..%d\n", s, lo, hi)
		}
	}
}

func runPing(args []string, tc *traceCtx) {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	size := fs.Int("size", 4, "message size in bytes")
	rounds := fs.Int("rounds", 1000, "messages to send")
	comm := commFlag(fs)
	fs.Parse(args)
	atLeast("ping", "size", *size, 1)
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1, Comm: comm()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	tc.arm(sys)
	us := workload.ChannelLatency(sys, sys.Node(0), sys.Node(1), *size, *rounds)
	fmt.Printf("channel latency, %d-byte messages over %d rounds: %.1f µs/msg\n", *size, *rounds, us)
	fmt.Printf("(paper, Table 2: 303/341/474/997 µs at 4/64/256/1024 bytes)\n")
	tc.finish(sys)
}

func runLinks(args []string, tc *traceCtx) {
	fs := flag.NewFlagSet("links", flag.ExitOnError)
	nodes := fs.Int("nodes", 20, "processing nodes")
	msgs := fs.Int("msgs", 10, "messages per sender")
	comm := commFlag(fs)
	fs.Parse(args)
	atLeast("links", "nodes", *nodes, 2)
	sys, err := core.Build(core.Config{Nodes: *nodes, Seed: 1, Comm: comm()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	tc.arm(sys)
	mk := workload.ManyToOne(sys, 800, *msgs)
	fmt.Printf("all-to-one workload on %d nodes finished in %v\n", *nodes, mk)
	fmt.Printf("%-14s %10s %10s\n", "LINK", "MESSAGES", "BUSY")
	stats := sys.IC.LinkStats()
	// Show the ten busiest.
	sort.Slice(stats, func(i, j int) bool { return stats[i].Busy > stats[j].Busy })
	for i, ls := range stats {
		if i >= 10 || ls.Messages == 0 {
			break
		}
		fmt.Printf("%-14s %10d %10v\n", ls.Name, ls.Messages, ls.Busy)
	}
	hot := sys.IC.HottestLink()
	fmt.Printf("hottest: %s — the sink's down-link, as expected for many-to-one\n", hot.Name)
	tc.finish(sys)
}

func runMix(args []string, tc *traceCtx) {
	fs := flag.NewFlagSet("mix", flag.ExitOnError)
	nodes := fs.Int("nodes", 6, "processing nodes")
	comm := commFlag(fs)
	fs.Parse(args)
	atLeast("mix", "nodes", *nodes, 2)
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: *nodes, Seed: 1, Comm: comm()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	tc.arm(sys)
	mt := netif.NewMsgTrace()
	for _, m := range sys.Machines() {
		mt.Attach(m.IF)
	}
	_ = workload.ManyToOne(sys, 700, 6)
	res := workload.OpenStorm(sys, 3)
	fmt.Printf("workload done (storm of %d opens included)\n\n", res.Opens)
	mt.Summarize(os.Stdout)
	tc.finish(sys)
}

// demoSchedule is the built-in fault schedule replayed when no
// -schedule file is given: a cube-link outage with repair, plus a node
// crash with a later cold restart.
const demoSchedule = `# built-in demo storm
1ms   link-down 0 2
8ms   link-up 0 2
2ms   crash node6
12ms  restart node6
`

func runChaos(args []string, tc *traceCtx) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	hosts := fs.Int("hosts", 2, "host workstations")
	nodes := fs.Int("nodes", 14, "processing nodes")
	seed := fs.Int64("seed", 1, "fault-engine seed")
	msgs := fs.Int("msgs", 24, "messages per channel pair")
	schedFile := fs.String("schedule", "", "fault schedule file (default: built-in demo)")
	detect := fs.String("detect", "", "oracle crash-detection delay, e.g. 500us (default 2ms)")
	doVerify := fs.Bool("verify", false, "attach the invariant checker; exit 1 on any violation")
	sweepN := fs.Int("sweep", 0, "run N seeded schedules (partitions, grays, crashes) plus N rebalance storms through the checker")
	shardSweepN := fs.Int("shardsweep", 0, "run N seeded crash/gray schedules at shards=1 and -shards and byte-diff the outcomes; exit 1 on any divergence")
	shards := fs.Int("shards", 4, "parallel shard count the -shardsweep runs split over (schedule replay itself clamps to the serial kernel)")
	retries := fs.Int("retries", 3, "channel write retry budget; 0 retries forever (lets writers survive a partition)")
	comm := commFlag(fs)
	fs.Parse(args)
	shardsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})

	if *shardSweepN > 0 {
		sw := vorxbench.RunShardSweep(*seed, *shardSweepN, *shards)
		sw.Format(os.Stdout)
		if !sw.OK() {
			os.Exit(1)
		}
		return
	}
	if shardsSet && *shards > 1 {
		// Schedule replay itself always runs the serial kernel, but an
		// explicit -shards asks for the sharded restriction: the fault
		// DSL rejects link and partition ops up front, naming the
		// offending schedule line, instead of hitting the fabric's
		// runtime panic mid-run.
		fmt.Fprintf(os.Stderr, "vorx: schedule replay runs the serial kernel; validating the schedule for %d shards\n", *shards)
	}

	if *sweepN > 0 {
		sw := vorxbench.RunChaosSweep(*seed, *sweepN)
		sw.Format(os.Stdout)
		st := vorxbench.RunStormSweep(*seed, *sweepN)
		st.Format(os.Stdout)
		if sw.Violations > 0 || st.Violations > 0 {
			os.Exit(1)
		}
		return
	}

	text := demoSchedule
	if *schedFile != "" {
		b, err := os.ReadFile(*schedFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vorx:", err)
			os.Exit(1)
		}
		text = string(b)
	}
	ops, err := fault.ParseSchedule(strings.NewReader(text))
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}

	sys, err := core.Build(core.Config{Hosts: *hosts, Nodes: *nodes, Seed: 1, Comm: comm()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	tc.arm(sys)
	var chk *verify.Checker
	if *doVerify {
		chk = verify.Attach(sys)
	}
	res := resmgr.NewVORX(sys.K, *nodes)
	if _, err := res.Allocate("alice", *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	eng := fault.New(sys.K, *seed)
	eng.MaxRetries = *retries
	eng.Bind(sys)
	if shardsSet {
		eng.SetShards(*shards)
	}
	eng.BindResmgr(res)
	if *detect != "" {
		d, err := fault.ParseDuration(*detect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vorx:", err)
			os.Exit(1)
		}
		eng.DetectDelay = d
	}
	if *hosts > 0 {
		replicas := 2
		if *hosts < replicas {
			replicas = *hosts
		}
		eng.BindDFS(dfs.New(sys, sys.Hosts(), replicas))
	}
	if err := eng.Apply(ops); err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}

	// Traffic: every node in the first half streams to a partner in the
	// second half, so the schedule's faults hit live channels.
	npairs := *nodes / 2
	recv := make([]int, npairs)
	werrs := make([]error, npairs)
	for pi := 0; pi < npairs; pi++ {
		pi := pi
		name := fmt.Sprintf("chaos%d", pi)
		wm, rm := sys.Node(pi), sys.Node(pi+npairs)
		sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < *msgs; i++ {
				if err := ch.Write(sp, 256, i); err != nil {
					werrs[pi] = err
					return
				}
			}
		})
		sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < *msgs; i++ {
				if _, ok := ch.Read(sp); !ok {
					return
				}
				recv[pi]++
			}
		})
	}
	if err := sys.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}

	fmt.Printf("chaos on %d hosts + %d nodes, seed %d, %d channel pairs x %d messages\n\n",
		*hosts, *nodes, *seed, npairs, *msgs)
	eng.Report(os.Stdout)
	fmt.Println("\nrecovery report:")
	clean := 0
	for pi := 0; pi < npairs; pi++ {
		switch {
		case werrs[pi] != nil:
			fmt.Printf("  pair %d (node%d->node%d): %d/%d delivered, writer error: %v\n",
				pi, pi, pi+npairs, recv[pi], *msgs, werrs[pi])
		case recv[pi] != *msgs:
			fmt.Printf("  pair %d (node%d->node%d): %d/%d delivered, reader saw peer death\n",
				pi, pi, pi+npairs, recv[pi], *msgs)
		default:
			clean++
		}
	}
	fmt.Printf("  %d/%d pairs delivered all %d messages exactly once\n", clean, npairs, *msgs)
	st := sys.IC.Stats()
	fmt.Printf("  interconnect: %d messages delivered, %d rerouted around failed links, %d cube links still down\n",
		st.MessagesDelivered, st.Reroutes, sys.IC.DownCubeLinks())
	retrans, deaths := 0, 0
	for _, m := range sys.Machines() {
		retrans += m.Chans.TimeoutRetransmits
		deaths += m.Chans.PeerDeaths
	}
	fmt.Printf("  channels: %d timeout retransmits, %d peer-death failures\n", retrans, deaths)
	fmt.Printf("  resmgr: %d force-frees", res.ForceFrees)
	freed := []string{}
	for i := 0; i < *nodes; i++ {
		if res.OwnerOf(resmgr.NodeID(i)) == "" {
			freed = append(freed, fmt.Sprintf("node%d", i))
		}
	}
	if len(freed) > 0 {
		fmt.Printf(" (reclaimed: %s)", strings.Join(freed, " "))
	}
	fmt.Println()
	fmt.Printf("  virtual time at quiesce: %v\n", sys.K.Now())
	if chk != nil {
		fmt.Println()
		chk.Report(os.Stdout)
		if !chk.Ok() {
			os.Exit(1)
		}
	}
	tc.finish(sys)
}

func runHeal(args []string, tc *traceCtx) {
	fs := flag.NewFlagSet("heal", flag.ExitOnError)
	nodes := fs.Int("nodes", 10, "processing nodes")
	pairs := fs.Int("pairs", 3, "supervised writer/reader pairs")
	msgs := fs.Int("msgs", 24, "messages per pair")
	crash := fs.String("crash", "2ms", "when the victim (pair 0's reader node) dies")
	hb := fs.String("hb", "500us", "heartbeat period")
	confirm := fs.String("confirm", "2ms", "heartbeat silence before death is confirmed")
	ckpt := fs.String("ckpt", "1ms", "checkpoint interval")
	horizon := fs.String("horizon", "80ms", "supervision horizon (beacons stop here)")
	fence := fs.Bool("fence", false, "partition-tolerant supervision: quorum-gated confirms plus incarnation fencing")
	comm := commFlag(fs)
	fs.Parse(args)
	if *pairs < 1 || *nodes < 2*(*pairs)+1 {
		fmt.Fprintf(os.Stderr, "vorx: need at least %d nodes for %d pairs plus a spare\n", 2*(*pairs)+1, *pairs)
		os.Exit(1)
	}
	durs := map[string]sim.Duration{}
	for name, s := range map[string]*string{"crash": crash, "hb": hb, "confirm": confirm, "ckpt": ckpt, "horizon": horizon} {
		d, err := fault.ParseDuration(*s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vorx: -%s: %v\n", name, err)
			os.Exit(1)
		}
		durs[name] = d
	}

	sys, err := core.Build(core.Config{Hosts: 1, Nodes: *nodes, Seed: 1, Comm: comm()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	tc.arm(sys)
	res := resmgr.NewVORX(sys.K, *nodes)
	if _, err := res.Allocate("app", 2*(*pairs)); err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	cfg := super.Config{
		HeartbeatEvery:  durs["hb"],
		ConfirmAfter:    durs["confirm"],
		CheckpointEvery: durs["ckpt"],
		Fence:           *fence,
	}
	sup := super.New(sys, sys.Host(0), res, cfg)

	eng := fault.New(sys.K, 1)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false) // the supervisor owns detection
	eng.CrashNodeAt(durs["crash"], *pairs)

	finals := make([][]string, *pairs)
	for pi := 0; pi < *pairs; pi++ {
		pi := pi
		name := fmt.Sprintf("heal%d", pi)
		writer := sup.NewTask(fmt.Sprintf("writer%d", pi), sys.Node(pi), 0, nil)
		reader := sup.NewTask(fmt.Sprintf("reader%d", pi), sys.Node(*pairs+pi), 0, nil)
		writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
			hs := super.RestoreStream(name, inc.State)
			ch := inc.Chan(name)
			if ch == nil {
				ch = inc.Machine.Chans.Open(sp, name, objmgr.OpenAny)
				writer.Attach(ch)
			}
			writer.SetCheckpointer(hs)
			for hs.Written < *msgs {
				if err := ch.Write(sp, 256, fmt.Sprintf("m%d", hs.Written)); err != nil {
					return
				}
				hs.Written++
				sp.SleepFor(300 * sim.Microsecond)
			}
		})
		reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
			hs := super.RestoreStream(name, inc.State)
			ch := inc.Chan(name)
			if ch == nil {
				ch = inc.Machine.Chans.Open(sp, name, objmgr.OpenAny)
				reader.Attach(ch)
			}
			reader.SetCheckpointer(hs)
			for hs.Read < *msgs {
				m, ok := ch.Read(sp)
				if !ok {
					return // crashed mid-read; the next incarnation resumes
				}
				hs.Log = append(hs.Log, m.Payload.(string))
				hs.Read++
			}
			finals[pi] = hs.Log
		})
		writer.Launch()
		reader.Launch()
	}

	sup.Start()
	sup.StopAt(durs["horizon"])
	if err := sys.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}

	fmt.Printf("heal on 1 host + %d nodes: %d supervised pairs x %d messages, reader node%d dies at %v\n\n",
		*nodes, *pairs, *msgs, *pairs, durs["crash"])
	sup.Report(os.Stdout)
	fmt.Println("\nexactly-once verification:")
	clean := 0
	for pi := 0; pi < *pairs; pi++ {
		want := make([]string, *msgs)
		for i := range want {
			want[i] = fmt.Sprintf("m%d", i)
		}
		switch {
		case finals[pi] == nil:
			fmt.Printf("  pair %d: reader never finished\n", pi)
		case strings.Join(finals[pi], ",") != strings.Join(want, ","):
			fmt.Printf("  pair %d: stream corrupted: %s\n", pi, strings.Join(finals[pi], ","))
		default:
			clean++
		}
	}
	fmt.Printf("  %d/%d pairs delivered all %d messages exactly once, in order\n", clean, *pairs, *msgs)
	if confirmRec, ok := sup.FirstRecord("confirm"); ok {
		if restartRec, ok2 := sup.FirstRecord("restart"); ok2 {
			fmt.Printf("  unavailability: crash %v -> confirm %v -> restart %v (window %v)\n",
				durs["crash"], confirmRec.At, restartRec.At,
				restartRec.At.Sub(sim.Time(0))-durs["crash"])
		}
	}
	fmt.Printf("  supervisor: %d heartbeats, %d checkpoints, %d restarts, %d rebinds\n",
		sup.Heartbeats, sup.Checkpoints, sup.Restarts, sup.Rebinds)
	fmt.Printf("  resmgr: %d force-frees, spare owner: %q\n", res.ForceFrees, "super")
	fmt.Printf("  virtual time at quiesce: %v\n", sys.K.Now())
	tc.finish(sys)
}

func cmdDownload(args []string) {
	fs := flag.NewFlagSet("download", flag.ExitOnError)
	nodes := fs.Int("nodes", 70, "processes to start")
	tree := fs.Bool("tree", false, "use the shared-stub tree download")
	fs.Parse(args)
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: *nodes, Seed: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	mode := stub.PerProcess
	if *tree {
		mode = stub.SharedTree
	}
	app := stub.Launch(sys, sys.Host(0), sys.Nodes(), stub.DefaultImage(), mode, nil)
	sys.RunFor(sim.Seconds(300))
	if !app.Ready() {
		fmt.Fprintln(os.Stderr, "vorx: download did not complete")
		os.Exit(1)
	}
	fmt.Printf("%s download of %d processes: %.2f s (paper: 12 s per-process, 2 s tree, at 70)\n",
		mode, *nodes, app.StartedAt.Seconds())
	sys.Shutdown()
}
