package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hpcvorx/internal/core"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vorxbench"
	"hpcvorx/internal/workload"
)

// benchReport is the schema of BENCH_<rev>.json: one data point on the
// simulator's own performance trajectory. Everything here measures the
// host (wall clock, allocations) — virtual time is untouched by
// definition, which is what makes the byte-identity fields meaningful.
type benchReport struct {
	Rev        string `json:"rev"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	// Kernel microbenchmark: a self-rescheduling timer chain, the
	// tightest loop the event engine has.
	KernelEvents        int     `json:"kernel_events"`
	KernelNsPerEvent    float64 `json:"kernel_ns_per_event"`
	KernelEventsPerSec  float64 `json:"kernel_events_per_sec"`
	KernelBytesPerEvent float64 `json:"kernel_bytes_per_event"`

	// Message macrobenchmark: the standard all-to-one workload through
	// the full stack (channels → netif → hpc → interrupt → channels).
	MsgRuns        int     `json:"msg_runs"`
	MsgCount       int     `json:"msg_count"`
	MsgPerSec      float64 `json:"msgs_per_sec"`
	MsgNsPerMsg    float64 `json:"ns_per_msg"`
	MsgBytesPerMsg float64 `json:"bytes_per_msg"`

	// Suite replication: the deterministic vorxbench experiments run
	// serially and across a worker pool; the outputs must match byte
	// for byte.
	SuiteIDs           string  `json:"suite_ids"`
	SuiteWorkers       int     `json:"suite_workers"`
	SuiteSerialMs      float64 `json:"suite_serial_ms"`
	SuiteParallelMs    float64 `json:"suite_parallel_ms"`
	SuiteSpeedup       float64 `json:"suite_speedup"`
	SuiteByteIdentical bool    `json:"suite_byte_identical"`

	// Seeded replications of the macro workload, serial vs pool.
	ReplSeeds         int     `json:"repl_seeds"`
	ReplSerialMs      float64 `json:"repl_serial_ms"`
	ReplParallelMs    float64 `json:"repl_parallel_ms"`
	ReplSpeedup       float64 `json:"repl_speedup"`
	ReplByteIdentical bool    `json:"repl_byte_identical"`

	// Classic vs pipelined comm profile on the large-write stream
	// (single channel, 8 KB writes): host cost per delivered message
	// and the virtual-time speedup of the windowed fast path. Fewer
	// host events per message means the pipelined protocol is cheaper
	// to simulate, not just faster in virtual time.
	CommStreamMsgs            int     `json:"comm_stream_msgs"`
	CommClassicNsPerMsg       float64 `json:"comm_classic_ns_per_msg"`
	CommPipelinedNsPerMsg     float64 `json:"comm_pipelined_ns_per_msg"`
	CommClassicEventsPerMsg   float64 `json:"comm_classic_events_per_msg"`
	CommPipelinedEventsPerMsg float64 `json:"comm_pipelined_events_per_msg"`
	CommVirtualSpeedup        float64 `json:"comm_virtual_speedup"`

	// Sharded kernel: one simulation split over shard threads with
	// route-aware conservative lookahead (E19's cross-cluster
	// workload), serial vs a sweep of shard counts. Speedup is honest
	// wall clock — best of shardReps runs per count, to damp scheduler
	// noise — and ShardGOMAXPROCS/ShardNumCPU record how many real
	// cores backed it: on a host without spare cores the shards
	// serialize and the synchronization is pure overhead, exactly as
	// the suite's Workers clamp reports. The legacy shard_* fields
	// mirror the ShardRows entry for -shards.
	ShardGOMAXPROCS    int        `json:"shard_gomaxprocs"`
	ShardNumCPU        int        `json:"shard_num_cpu"`
	ShardRows          []shardRow `json:"shard_rows"`
	ShardShards        int        `json:"shard_shards"`
	ShardEvents        uint64     `json:"shard_events"`
	ShardCrossPosts    uint64     `json:"shard_cross_posts"`
	ShardHandoffs      int        `json:"shard_handoffs"`
	ShardSerialMs      float64    `json:"shard_serial_ms"`
	ShardParallelMs    float64    `json:"shard_parallel_ms"`
	ShardSpeedup       float64    `json:"shard_speedup"`
	ShardByteIdentical bool       `json:"shard_byte_identical"`
}

// shardRow is one shard count's measurement in the sweep: throughput
// against the serial baseline plus the sim.sync.* counters that price
// the conservative synchronization buying it.
type shardRow struct {
	Shards           int     `json:"shards"`
	Events           uint64  `json:"events"`
	CrossPosts       uint64  `json:"cross_posts"`
	Handoffs         int     `json:"handoffs"`
	WallMs           float64 `json:"wall_ms"`
	Speedup          float64 `json:"speedup"`
	HorizonPublishes uint64  `json:"horizon_publishes"`
	NullMessages     uint64  `json:"null_messages"`
	Wakeups          uint64  `json:"wakeups"`
	DrainRuns        uint64  `json:"drain_runs"`
	AvgDrainRun      float64 `json:"avg_drain_run"`
	ByteIdentical    bool    `json:"byte_identical"`
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	rev := fs.String("rev", "dev", "revision label; -json writes BENCH_<rev>.json")
	jsonOut := fs.Bool("json", false, "write BENCH_<rev>.json (or -out) in addition to the text report")
	out := fs.String("out", "", "override the JSON output path")
	events := fs.Int("events", 2_000_000, "kernel microbenchmark event count")
	msgRuns := fs.Int("msgruns", 20, "repetitions of the all-to-one message macrobenchmark")
	suite := fs.String("suite", "", "comma-separated suite ids (default: all deterministic experiments)")
	seeds := fs.Int("seeds", 8, "seeded replications of the macro workload")
	workers := fs.Int("workers", 0, "worker-pool size for parallel replication; 0 = one per CPU")
	shards := fs.Int("shards", 4, "shard count for the sharded-kernel benchmark")
	fs.Parse(args)

	r := benchReport{
		Rev:        *rev,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	// 1. Event engine: a single self-rescheduling timer, the pattern
	// every sleeping proc and protocol timeout reduces to.
	r.KernelEvents = *events
	wall, bytes := benchKernel(*events)
	r.KernelNsPerEvent = float64(wall.Nanoseconds()) / float64(*events)
	r.KernelEventsPerSec = float64(*events) / wall.Seconds()
	r.KernelBytesPerEvent = bytes / float64(*events)
	fmt.Printf("kernel:      %d events in %v  (%.1f ns/event, %.2fM events/s, %.1f B/event)\n",
		*events, wall.Round(time.Millisecond), r.KernelNsPerEvent, r.KernelEventsPerSec/1e6, r.KernelBytesPerEvent)

	// 2. Full message stack: all-to-one on 20 nodes, 800 B x 10 per
	// sender, fresh share-nothing system per run.
	const msgNodes, msgSize, msgPer = 20, 800, 10
	perRun := (msgNodes - 1) * msgPer
	r.MsgRuns = *msgRuns
	r.MsgCount = perRun * *msgRuns
	wall, bytes = benchMessages(*msgRuns, msgNodes, msgSize, msgPer)
	r.MsgPerSec = float64(r.MsgCount) / wall.Seconds()
	r.MsgNsPerMsg = float64(wall.Nanoseconds()) / float64(r.MsgCount)
	r.MsgBytesPerMsg = bytes / float64(r.MsgCount)
	fmt.Printf("messages:    %d app messages in %v  (%.0f ns/msg, %.0fk msgs/s, %.0f B/msg)\n",
		r.MsgCount, wall.Round(time.Millisecond), r.MsgNsPerMsg, r.MsgPerSec/1e3, r.MsgBytesPerMsg)

	// 3. Classic vs pipelined comm profile: the same large-write stream
	// through both stacks.
	const streamRuns, streamSize, streamMsgs = 10, 8192, 64
	cWall, cEvents, cVirt := benchStream(streamRuns, streamSize, streamMsgs, core.Classic())
	pWall, pEvents, pVirt := benchStream(streamRuns, streamSize, streamMsgs, core.Pipelined())
	n := float64(streamRuns * streamMsgs)
	r.CommStreamMsgs = streamRuns * streamMsgs
	r.CommClassicNsPerMsg = float64(cWall.Nanoseconds()) / n
	r.CommPipelinedNsPerMsg = float64(pWall.Nanoseconds()) / n
	r.CommClassicEventsPerMsg = float64(cEvents) / n
	r.CommPipelinedEventsPerMsg = float64(pEvents) / n
	r.CommVirtualSpeedup = cVirt.Seconds() / pVirt.Seconds()
	fmt.Printf("comm:        stream %dx%dB  classic %.0f ns/msg %.1f events/msg, pipelined %.0f ns/msg %.1f events/msg  (virtual %.2fx)\n",
		streamMsgs, streamSize, r.CommClassicNsPerMsg, r.CommClassicEventsPerMsg,
		r.CommPipelinedNsPerMsg, r.CommPipelinedEventsPerMsg, r.CommVirtualSpeedup)

	// 4. Suite replication, serial vs worker pool.
	ids := vorxbench.DeterministicIDs()
	if *suite != "" {
		ids = strings.Split(*suite, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	r.SuiteIDs = strings.Join(ids, ",")
	r.SuiteWorkers = vorxbench.Workers(*workers)
	serialOut, serialWall := vorxbench.TimedRun(ids, 1)
	parOut, parWall := serialOut, serialWall
	if r.SuiteWorkers > 1 {
		// With one effective worker the pool would take the serial path
		// anyway; rerunning it only measures wall-clock noise.
		parOut, parWall = vorxbench.TimedRun(ids, r.SuiteWorkers)
	}
	r.SuiteSerialMs = float64(serialWall.Microseconds()) / 1000
	r.SuiteParallelMs = float64(parWall.Microseconds()) / 1000
	r.SuiteSpeedup = serialWall.Seconds() / parWall.Seconds()
	r.SuiteByteIdentical = serialOut == parOut
	fmt.Printf("suite:       %d experiments  serial %v, %d workers %v  (%.2fx, byte-identical: %v)\n",
		len(ids), serialWall.Round(time.Millisecond), r.SuiteWorkers, parWall.Round(time.Millisecond),
		r.SuiteSpeedup, r.SuiteByteIdentical)

	// 5. Seeded replications of the macro workload.
	ss := make([]int64, *seeds)
	for i := range ss {
		ss[i] = int64(i + 1)
	}
	r.ReplSeeds = *seeds
	start := time.Now()
	serialDigests := vorxbench.ReplicateSeeds(ss, 1, vorxbench.SeededRun)
	serialWall = time.Since(start)
	parDigests, parWall := serialDigests, serialWall
	if r.SuiteWorkers > 1 {
		start = time.Now()
		parDigests = vorxbench.ReplicateSeeds(ss, r.SuiteWorkers, vorxbench.SeededRun)
		parWall = time.Since(start)
	}
	r.ReplSerialMs = float64(serialWall.Microseconds()) / 1000
	r.ReplParallelMs = float64(parWall.Microseconds()) / 1000
	r.ReplSpeedup = serialWall.Seconds() / parWall.Seconds()
	r.ReplByteIdentical = true
	for i := range serialDigests {
		if serialDigests[i] != parDigests[i] {
			r.ReplByteIdentical = false
		}
	}
	fmt.Printf("replication: %d seeds  serial %v, %d workers %v  (%.2fx, per-seed identical: %v)\n",
		*seeds, serialWall.Round(time.Millisecond), r.SuiteWorkers, parWall.Round(time.Millisecond),
		r.ReplSpeedup, r.ReplByteIdentical)

	// 6. Sharded kernel: the same simulation on the serial kernel and
	// split over each shard count in the sweep. The digests must match
	// byte for byte at every count — that is the parallel kernel's
	// contract, not a statistical property. Wall clocks take the best
	// of shardReps runs: virtual time is exact, but host scheduling on
	// a shared builder is noisy and the minimum is the stable estimate.
	const shardReps = 5
	r.ShardGOMAXPROCS = runtime.GOMAXPROCS(0)
	r.ShardNumCPU = runtime.NumCPU()
	counts := []int{2, 4, 8}
	if *shards != 2 && *shards != 4 && *shards != 8 {
		counts = append(counts, *shards)
	}
	best := func(n int) vorxbench.ShardMeasure {
		run := vorxbench.ShardBench(n)
		for rep := 1; rep < shardReps; rep++ {
			if again := vorxbench.ShardBench(n); again.Wall < run.Wall {
				run = again
			}
		}
		return run
	}
	serial := best(1)
	r.ShardSerialMs = float64(serial.Wall.Microseconds()) / 1000
	r.ShardEvents = serial.Events
	r.ShardByteIdentical = true
	for _, n := range counts {
		run := best(n)
		row := shardRow{
			Shards:           n,
			Events:           run.Events,
			CrossPosts:       run.Cross,
			Handoffs:         run.Handoffs,
			WallMs:           float64(run.Wall.Microseconds()) / 1000,
			Speedup:          serial.Wall.Seconds() / run.Wall.Seconds(),
			HorizonPublishes: run.Sync.HorizonPublishes,
			NullMessages:     run.Sync.NullMessages,
			Wakeups:          run.Sync.Wakeups,
			DrainRuns:        run.Sync.DrainRuns,
			AvgDrainRun:      run.Sync.AvgDrainRun(),
			ByteIdentical:    run.Digest == serial.Digest,
		}
		r.ShardRows = append(r.ShardRows, row)
		if !row.ByteIdentical {
			r.ShardByteIdentical = false
		}
		if n == *shards {
			r.ShardShards = n
			r.ShardCrossPosts = row.CrossPosts
			r.ShardHandoffs = row.Handoffs
			r.ShardParallelMs = row.WallMs
			r.ShardSpeedup = row.Speedup
		}
		fmt.Printf("sharded:     %d shards %v  (%.2fx vs serial %v, %d cross posts, %d front pubs, %d null pubs, %d wakeups, %.1f ev/drain, byte-identical: %v)\n",
			n, run.Wall.Round(time.Millisecond), row.Speedup, serial.Wall.Round(time.Millisecond),
			row.CrossPosts, row.HorizonPublishes, row.NullMessages, row.Wakeups, row.AvgDrainRun, row.ByteIdentical)
	}
	if r.ShardGOMAXPROCS < r.ShardShards {
		fmt.Printf("sharded:     note: %d of %d CPUs usable for %d shards — synchronization overhead with little parallelism\n",
			r.ShardGOMAXPROCS, r.ShardNumCPU, r.ShardShards)
	}

	if !r.SuiteByteIdentical || !r.ReplByteIdentical {
		fmt.Fprintln(os.Stderr, "vorx bench: parallel replication diverged from serial output")
		defer os.Exit(1)
	}
	if !r.ShardByteIdentical {
		fmt.Fprintln(os.Stderr, "vorx bench: sharded run diverged from the serial kernel")
		defer os.Exit(1)
	}

	if *jsonOut || *out != "" {
		path := *out
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", *rev)
		}
		b, err := json.MarshalIndent(&r, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vorx bench:", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vorx bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

// benchKernel drives one self-rescheduling timer through n events and
// reports wall time and bytes allocated during the run.
func benchKernel(n int) (time.Duration, float64) {
	k := sim.NewKernel(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			k.After(sim.Microsecond, tick)
		}
	}
	k.After(sim.Microsecond, tick)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return wall, float64(m1.TotalAlloc - m0.TotalAlloc)
}

// benchStream runs the large-write stream workload under a comm
// profile, returning total host wall time, total host events
// scheduled, and the virtual makespan of one run.
func benchStream(runs, size, msgs int, cp core.CommProfile) (time.Duration, uint64, sim.Duration) {
	var wall time.Duration
	var events uint64
	var virt sim.Duration
	for i := 0; i < runs; i++ {
		sys, err := core.Build(core.Config{Nodes: 2, Seed: 1, Comm: cp})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		virt = workload.Stream(sys, size, msgs)
		wall += time.Since(start)
		events += sys.K.Scheduled()
	}
	return wall, events, virt
}

// benchMessages runs the all-to-one workload `runs` times on fresh
// systems, measuring only the workload portion of each run.
func benchMessages(runs, nodes, size, per int) (time.Duration, float64) {
	var wall time.Duration
	var bytes float64
	for i := 0; i < runs; i++ {
		sys, err := core.Build(core.Config{Nodes: nodes, Seed: 1})
		if err != nil {
			panic(err)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		workload.ManyToOne(sys, size, per)
		wall += time.Since(start)
		runtime.ReadMemStats(&m1)
		bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	return wall, bytes
}
