package vorxbench

import (
	"runtime"
	"testing"
)

// TestWorkersClampedToCPUs: the resolved worker count never exceeds
// the CPUs actually available — share-nothing simulation workers are
// pure compute, and oversubscribing a small builder measurably slowed
// the suite (BENCH_pr4.json recorded a 0.86x "speedup" on one CPU).
func TestWorkersClampedToCPUs(t *testing.T) {
	cpus := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < cpus {
		cpus = g
	}
	for _, req := range []int{0, -3, 1, 2, cpus, cpus + 1, 1000} {
		got := Workers(req)
		if got > cpus {
			t.Fatalf("Workers(%d) = %d, exceeds %d available CPUs", req, got, cpus)
		}
		if got < 1 {
			t.Fatalf("Workers(%d) = %d, want >= 1", req, got)
		}
	}
	if cpus >= 2 {
		if got := Workers(2); got != 2 {
			t.Fatalf("Workers(2) = %d on a %d-CPU machine, want 2", Workers(2), cpus)
		}
	}
	if got := Workers(0); got != cpus {
		t.Fatalf("Workers(0) = %d, want one per CPU (%d)", got, cpus)
	}
}

// TestRunIDsSerialParallelIdentical: the worker pool changes nothing
// about the rendered experiments, regardless of worker count.
func TestRunIDsSerialParallelIdentical(t *testing.T) {
	ids := []string{"E1", "E15"}
	serial := RunIDs(ids, 1)
	parallel := RunIDs(ids, 4)
	for i := range ids {
		if serial[i].String() != parallel[i].String() {
			t.Fatalf("experiment %s diverged between serial and parallel runs", ids[i])
		}
	}
}
