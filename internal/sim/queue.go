package sim

// Queue is a growable FIFO backed by a ring buffer. The zero value is ready
// to use. It is the building block for source queues and flit buffers.
type Queue[T any] struct {
	buf        []T
	head, size int
}

// NewQueue returns a queue with capacity pre-allocated for n elements.
func NewQueue[T any](n int) *Queue[T] {
	if n < 1 {
		n = 1
	}
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
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
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

// Bounded is a fixed-capacity FIFO ring used for hardware buffers whose
// depth models a real resource (e.g. a VC flit buffer). Push on a full
// Bounded panics: in a credit-correct simulation that is a logic error, and
// failing loudly catches flow-control bugs immediately.
type Bounded[T any] struct {
	buf        []T
	head, size int
}

// BoundedOver returns a ring whose element storage is the caller-supplied
// slice (len(buf) slots). The network uses it to carve every VC flit buffer
// out of one contiguous per-shard slab.
func BoundedOver[T any](buf []T) Bounded[T] {
	if len(buf) < 1 {
		panic("sim: Bounded depth must be >= 1")
	}
	return Bounded[T]{buf: buf}
}

// Len reports the number of buffered elements.
func (b *Bounded[T]) Len() int { return b.size }

// Empty reports whether the ring holds no elements.
func (b *Bounded[T]) Empty() bool { return b.size == 0 }

// Full reports whether the ring is at capacity.
func (b *Bounded[T]) Full() bool { return b.size == len(b.buf) }

// Push appends v; it panics if the ring is full.
func (b *Bounded[T]) Push(v T) {
	if b.Full() {
		panic("sim: Bounded overflow (flow-control violation)")
	}
	i := b.head + b.size
	if i >= len(b.buf) {
		i -= len(b.buf)
	}
	b.buf[i] = v
	b.size++
}

// Pop removes and returns the head element.
func (b *Bounded[T]) Pop() (v T, ok bool) {
	if b.size == 0 {
		return v, false
	}
	v = b.buf[b.head]
	var zero T
	b.buf[b.head] = zero
	if b.head++; b.head == len(b.buf) {
		b.head = 0
	}
	b.size--
	return v, true
}

// At returns the i-th element from the head (0 = head). It panics if i is
// out of range.
func (b *Bounded[T]) At(i int) T {
	if i < 0 || i >= b.size {
		panic("sim: Bounded.At out of range")
	}
	if i += b.head; i >= len(b.buf) {
		i -= len(b.buf)
	}
	return b.buf[i]
}
