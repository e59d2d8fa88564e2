package sim

// Queue is an unbounded FIFO message queue in virtual time. Put never
// blocks; Get blocks while the queue is empty. Waiting getters are
// served in FIFO order.
type Queue[T any] struct {
	name    string
	items   []T
	getters []*Proc
}

// NewQueue returns an empty queue.
func NewQueue[T any](name string) *Queue[T] {
	return &Queue[T]{name: name}
}

// Put appends v, waking the oldest blocked getter if any.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	if len(q.getters) > 0 {
		w := q.getters[0]
		q.getters = q.getters[1:]
		w.unpark()
	}
}

// Get removes and returns the oldest item, blocking p while the queue
// is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.getters = append(q.getters, p)
		p.park("queue-get ", q.name)
	}
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v
}
