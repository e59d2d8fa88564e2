package main

import (
	"runtime"
	"time"
)

// Host-time figures are reported at a reference host speed. On a shared
// virtual machine other tenants can slow memory-bound code by 1.7× for
// seconds to minutes at a time while leaving plain arithmetic alone, so
// raw wall times from two runs of the same code need not agree. Every
// run therefore interleaves a fixed calibration pass with its
// iterations, and scales its host times by calRefMs over the median
// pass. The pass allocates a linked map of small nodes, which tracks the
// simulator's slow-downs within a few percent, and uses nothing from the
// program, so a change to the program cannot move it.

// calNodes sizes one calibration pass.
const calNodes = 25_000

// calRefMs is the duration of one calibration pass on an uncontended
// 2-vCPU Intel Xeon virtual machine with Go 1.24; scaled host times read
// as they would on that machine.
const calRefMs = 1.75

type calNode struct {
	key  int
	next *calNode
}

var calSink int

// calibrate times one calibration pass.
func calibrate() time.Duration {
	t0 := time.Now()
	m := make(map[int]*calNode)
	var head *calNode
	for i := 0; i < calNodes; i++ {
		head = &calNode{key: i, next: head}
		m[i*7] = head
	}
	calSink += len(m)
	return time.Since(t0)
}

// hostSpeed collects a run's calibration passes.
type hostSpeed struct{ passes []float64 }

// sample collects garbage, so that every pass starts from the same
// heap, and times one pass.
func (h *hostSpeed) sample() {
	runtime.GC()
	h.passes = append(h.passes, ms(calibrate()))
}

// factor converts the run's raw host times to reference-host times.
func (h *hostSpeed) factor() float64 { return calRefMs / median(h.passes) }
