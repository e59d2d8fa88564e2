// Command perfbench is the repository's benchmark. It builds HPC/VORX
// machines through core's public constructors, runs one seeded
// closed-loop workload on fresh machines for a fixed time, checks that
// every message arrived exactly once and in order, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) by
// name and unit. The last line of standard output is the result as one
// JSON object.
//
//	perfbench --workload fanin_classic --seed 1 --seconds 10 --trace 0 [--record set.jsonl]
//	perfbench compare [--spec BENCHMARK.json] parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and what each per-layer
// metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	os.Exit(runBench(os.Args[1:]))
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloads))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	recordTo := fs.String("record", "", "append the result to this result-set file (JSON lines) for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := makePlan(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Every workload runs on one host thread. The sharded workload's two
	// shards share it: on two threads, sim.Group occasionally panics
	// with "cross-shard event arrived in the past" (about once in 3,000
	// iterations of pairs_sharded; see README.md).
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res, err = perLayer(p, budget)
	} else {
		res, err = endToEnd(p, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s seed %d: %s\n", p.name, *seed, res.note)
	res.note = ""
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{Workload: p.name, Seed: *seed, Trace: *traced, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--spec BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var sets [2][]record
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	if compare(os.Stdout, sp, sets[0], sets[1]) {
		return 1
	}
	return 0
}
