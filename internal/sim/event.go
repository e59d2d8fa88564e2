package sim

import "slices"

// event is a scheduled callback, or the start or resume of a proc.
// Events at equal times fire in scheduling order (seq), which makes the
// simulation deterministic.
//
// Event shells are pooled: when an event fires or is stopped, the
// shell goes back to the kernel's free list and its gen is bumped. A
// Timer remembers the gen it was issued with, so a stale handle held
// across a recycle can neither stop nor observe the shell's next
// occupant. Steady-state scheduling therefore allocates nothing: the
// working set of shells is bounded by the peak number of
// simultaneously pending events.
type event struct {
	k     *Kernel
	at    Time
	seq   uint64
	gen   uint64
	fn    func()
	proc  *Proc // the proc this event starts or resumes, when fn is nil
	index int32 // heap position while queued, or nowIdx
}

const (
	nowIdx int32 = -1 // resident in the same-instant FIFO

	localSeq      = uint64(1) << 63 // set in every local event's seq
	crossSrcShift = 40              // a cross's seq: source shard << 40 | post count
)

// Timer is a handle to a scheduled event that can be canceled before it
// fires. The zero Timer is never pending.
type Timer struct {
	ev  *event
	gen uint64
}

// Pending reports whether the timer's event is still queued: it has
// neither fired nor been stopped. A shell's gen moves on whenever its
// event leaves the pending store, so a stale handle reads false.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer: its event leaves the pending store and never
// runs. It reports whether the timer was still pending (true) or had
// already fired or been stopped (false); stopping a fired, stopped or
// zero Timer is a no-op.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	k := t.ev.k
	k.remove(t.ev)
	k.recycle(t.ev)
	return true
}

// eventLess orders events by (at, seq). seq is unique, so this is a
// total order: any heap arrangement pops in exactly the same sequence.
// A local event's seq is its kernel's schedule count with localSeq set;
// a cross-shard event drained into the heap (Group.drain) carries its
// source shard above crossSrcShift and the source kernel's post count
// below. At equal times, crosses therefore run before local events, in
// (source shard, posting order).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The pending-event store is a 4-ary min-heap indexed through
// event.index, plus a FIFO of events scheduled for the current instant
// (kernel.nowQ). It holds exactly the events that will run. A 4-ary
// heap halves the tree depth of the binary container/heap it replaces
// and keeps the four children of a node on one cache line of pointers;
// indexing through the shells lets Stop remove an event without
// searching.

// heapPush inserts ev into the pending heap.
func (k *Kernel) heapPush(ev *event) {
	k.events = append(k.events, ev)
	k.siftUp(int32(len(k.events)-1), ev)
}

// heapRemove takes the event at heap position i out of the heap. The
// last event fills the hole and moves whichever way restores the order.
func (k *Kernel) heapRemove(i int32) {
	h := k.events
	last := int32(len(h) - 1)
	tail := h[last]
	h[last] = nil
	k.events = h[:last]
	if i == last {
		return
	}
	if i > 0 && eventLess(tail, h[(i-1)>>2]) {
		k.siftUp(i, tail)
	} else {
		k.siftDown(i, tail)
	}
}

// remove takes the pending event ev out of the store: out of the heap,
// or out of the same-instant FIFO with the order of the rest kept. The
// caller recycles it.
func (k *Kernel) remove(ev *event) {
	if ev.index != nowIdx {
		k.heapRemove(ev.index)
		return
	}
	if k.nowQ[k.nowHead] == ev { // dispatch takes the head
		k.nowQ[k.nowHead] = nil
		k.nowHead++
	} else {
		i := k.nowHead + slices.Index(k.nowQ[k.nowHead:], ev)
		k.nowQ = slices.Delete(k.nowQ, i, i+1)
	}
	if k.nowHead == len(k.nowQ) {
		k.nowQ = k.nowQ[:0]
		k.nowHead = 0
	}
}

// siftUp places ev at position i, bubbling it toward the root.
func (k *Kernel) siftUp(i int32, ev *event) {
	h := k.events
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// siftDown places ev at position i, sinking it below smaller children.
func (k *Kernel) siftDown(i int32, ev *event) {
	h := k.events
	n := int32(len(h))
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}

// maxFreeEvents bounds the free list so a one-off burst does not pin
// its peak working set forever.
const maxFreeEvents = 1 << 14

// alloc takes an event shell from the free list, or mints one.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{k: k}
}

// recycle returns a shell to the free list. Bumping gen invalidates
// every outstanding Timer for the shell's previous life.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	if len(k.free) < maxFreeEvents {
		k.free = append(k.free, ev)
	}
}
