package vorxbench

import (
	"runtime"
	"sync"
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
