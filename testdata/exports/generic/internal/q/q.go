package q

// Queue is a FIFO of T.
type Queue[T any] struct{ items []T }

// Put appends v.
func (q *Queue[T]) Put(v T) { q.items = append(q.items, v) }

// Get removes and returns the oldest item.
func (q *Queue[T]) Get() T {
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// Len is called by nothing.
func (q *Queue[T]) Len() int { return len(q.items) }
