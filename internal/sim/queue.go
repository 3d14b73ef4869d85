package sim

// Queue is a growable FIFO backed by a ring buffer. The zero value is ready
// to use. It backs the NI source queues and the crossbar ingress queues.
type Queue[T any] struct {
	buf        []T
	head, size int
}

// NewQueue returns a queue with capacity pre-allocated for n elements.
func NewQueue[T any](n int) *Queue[T] {
	return &Queue[T]{buf: make([]T, n)}
}

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Push appends v at the tail, growing the ring if needed.
func (q *Queue[T]) Push(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	i := q.head + q.size
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.size++
}

func (q *Queue[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 4
	}
	nb := make([]T, n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Pop removes and returns the head element. ok is false on an empty queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v, q.buf[q.head] = q.buf[q.head], *new(T)
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return v, true
}

// Peek returns the head element without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}
