package udo

import (
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Scatter/gather I/O — one of the "other application-specific input
// and output techniques" §4.1 says user-defined objects permit. A
// gathered send pushes several non-contiguous buffers at the hardware
// as one message, paying a small per-segment setup instead of first
// coalescing everything into a staging buffer (a full extra copy).

// GatherSegment is one source buffer of a gathered send.
type GatherSegment struct {
	Size    int
	Payload any
}

// GatherSetup is the per-segment address-setup cost of a gathered
// send.
const GatherSetup = 3 * sim.Microsecond

// SendGather transmits the segments as a single message. Cost: the
// fixed direct-access send, one copy of each segment, and the
// per-segment setup — no staging copy.
func (o *Object) SendGather(sp *kern.Subprocess, dst topo.EndpointID, segs []GatherSegment) error {
	costs := o.f.Node().Costs()
	total := 0
	cost := costs.UDOSend
	for _, s := range segs {
		total += s.Size
		cost += costs.CopyTime(s.Size) + GatherSetup
	}
	sp.Compute(cost)
	payload := make([]any, len(segs))
	for i, s := range segs {
		payload[i] = s.Payload
	}
	return o.f.Send(sp, dst, "udo."+o.name, total+RawHeader, payload)
}

// SendCoalesced transmits the same segments the naive way: copy them
// into a staging buffer first, then send the staging buffer. Cost:
// one extra full copy. Provided for the ablation benchmark.
func (o *Object) SendCoalesced(sp *kern.Subprocess, dst topo.EndpointID, segs []GatherSegment) error {
	costs := o.f.Node().Costs()
	total := 0
	for _, s := range segs {
		total += s.Size
	}
	// Staging copy, then the normal direct send (which copies again).
	sp.Compute(costs.CopyTime(total))
	payload := make([]any, len(segs))
	for i, s := range segs {
		payload[i] = s.Payload
	}
	sp.Compute(costs.UDOSend + costs.CopyTime(total))
	return o.f.Send(sp, dst, "udo."+o.name, total+RawHeader, payload)
}
