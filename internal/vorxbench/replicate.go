package vorxbench

import (
	"fmt"
	"runtime"
	"sync"

	"hpcvorx/internal/core"
	"hpcvorx/internal/workload"
)

// Replication support: every experiment builds its own core.System —
// its own sim.Kernel, interconnect, machines, and services — and
// communicates with nothing outside it. Kernels are share-nothing, so
// independent replications can run on independent goroutines with no
// locking at all; the only coordination is handing out job indices and
// waiting for completion. Results are collected by index, so the
// rendered output is byte-identical to the serial run regardless of
// which worker finished first.

// Workers resolves a worker-count request: n < 1 means one worker per
// available CPU. Requests are clamped to the machine's CPU count —
// share-nothing simulation workers are pure compute, so oversubscribing
// cores only adds scheduling overhead (BENCH_pr4.json measured the
// pool costing 14% on a 1-CPU builder; the callers' serial path makes
// an effective worker count of 1 free).
func Workers(n int) int {
	cpus := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < cpus {
		cpus = g
	}
	if n < 1 || n > cpus {
		return cpus
	}
	return n
}

// RunIDs generates the named experiments across a pool of workers and
// returns the tables in the requested order. workers <= 1 runs
// serially on the calling goroutine. Unknown ids yield nil entries,
// exactly as ByID would.
func RunIDs(ids []string, workers int) []*Table {
	out := make([]*Table, len(ids))
	workers = Workers(workers)
	if workers == 1 || len(ids) <= 1 {
		for i, id := range ids {
			out[i] = ByID(id)
		}
		return out
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = ByID(ids[i])
			}
		}()
	}
	for i := range ids {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// SeededRun is one independent replication of the standard all-to-one
// macro workload (20 nodes, 800-byte messages, 10 per sender) at a
// given seed. The returned digest captures everything the run decided
// in virtual time, so comparing digests across serial and parallel
// execution proves the worker pool changed nothing.
func SeededRun(seed int64) string {
	sys, err := core.Build(core.Config{Nodes: 20, Seed: seed})
	if err != nil {
		panic(err)
	}
	mk := workload.ManyToOne(sys, 800, 10)
	return fmt.Sprintf("seed=%d makespan=%v quiesce=%v", seed, mk, sys.K.Now())
}

// ReplicateSeeds runs fn once per seed across a pool of workers and
// returns the outputs in seed order. workers <= 1 runs serially.
func ReplicateSeeds(seeds []int64, workers int, fn func(seed int64) string) []string {
	out := make([]string, len(seeds))
	workers = Workers(workers)
	if workers == 1 || len(seeds) <= 1 {
		for i, s := range seeds {
			out[i] = fn(s)
		}
		return out
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = fn(seeds[i])
			}
		}()
	}
	for i := range seeds {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
