package sim

// refDelayLine is the slot-valid DelayLine the zero-value-empty one
// replaced, kept as the oracle TestDelayLineMatchesReference runs it
// against: every slot carries its own valid flag, so it accepts any value,
// zero included, and needs no comparison to tell a full slot from an empty
// one.
type refDelayLine[T any] struct {
	slots  []refSlot[T]
	head   int
	tail   int
	count  int
	pushed bool
	full   bool
}

type refSlot[T any] struct {
	v     T
	valid bool
}

func newRefDelayLine[T any](latency int) *refDelayLine[T] {
	return &refDelayLine[T]{slots: make([]refSlot[T], latency), tail: latency - 1}
}

func (d *refDelayLine[T]) Busy() bool { return d.count > 0 }

func (d *refDelayLine[T]) CanPush() bool { return !d.pushed && !d.full }

func (d *refDelayLine[T]) Push(v T) {
	if !d.CanPush() {
		panic("sim: DelayLine double push or entry occupied")
	}
	d.slots[d.tail] = refSlot[T]{v: v, valid: true}
	d.count++
	d.pushed = true
	d.full = true
}

func (d *refDelayLine[T]) Shift() (v T, ok bool) {
	d.pushed = false
	out := d.slots[d.head]
	d.slots[d.head] = refSlot[T]{}
	d.tail = d.head
	d.full = false
	if d.head++; d.head == len(d.slots) {
		d.head = 0
	}
	if out.valid {
		d.count--
		return out.v, true
	}
	return v, false
}

func (d *refDelayLine[T]) Len() int { return d.count }

func (d *refDelayLine[T]) Each(fn func(T)) {
	for i := 0; i < len(d.slots); i++ {
		if s := d.slots[(d.head+i)%len(d.slots)]; s.valid {
			fn(s.v)
		}
	}
}
