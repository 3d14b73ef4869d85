package sim

// MaxLatency caps a DelayLine's latency, and with it the router
// configuration's link latency and VC depth.
const MaxLatency = 256

// DelayLine models a fixed-latency pipeline register chain (a link's flit
// wire). A value pushed at cycle t pops out exactly latency cycles
// later. The line must be advanced exactly once per simulated cycle via
// Shift; a cheap occupancy counter lets idle links skip work.
//
// At most one value may enter per cycle, matching a single-flit-wide link.
// A slot holding T's zero value is empty, so the zero value cannot be sent
// (Push panics on it) and a slot costs exactly one T: a flit wire's slot is
// its 16-byte on-wire flit.
//
// A line of latency <= 2 (the default flit wire) keeps its ring inline, a
// longer one behind ext. The indices are bytes and wrap by comparison with
// last, not by modulo: Shift and Push sit on the simulator's hottest
// path. A flit wire's line is 48 bytes.
type DelayLine[T comparable] struct {
	arr    [2]T   // the ring of a line of latency <= len(arr)
	count  uint16 // values in flight
	head   uint8  // index shifted out next
	tail   uint8  // entry register: index pushes land in
	last   uint8  // latency - 1, the index head wraps after
	pushed bool   // a value entered since the last Shift: the entry register is taken
	ext    *[]T   // the ring of a line longer than len(arr); nil otherwise
}

// Init initializes d with the given latency in [1, MaxLatency].
func (d *DelayLine[T]) Init(latency int) {
	if latency < 1 || latency > MaxLatency {
		panic("sim: DelayLine latency outside [1, MaxLatency]")
	}
	*d = DelayLine[T]{tail: uint8(latency - 1), last: uint8(latency - 1)}
	if latency > len(d.arr) {
		ring := make([]T, latency)
		d.ext = &ring
	}
}

// slot returns ring slot i.
func (d *DelayLine[T]) slot(i uint8) *T {
	if d.ext != nil {
		return &(*d.ext)[i]
	}
	return &d.arr[i&1]
}

// Busy reports whether any value is in flight.
func (d *DelayLine[T]) Busy() bool { return d.count > 0 }

// CanPush reports whether a value may enter this cycle: Shift frees the
// entry register (the just-emptied head slot) and Push takes it, so one
// flag answers "one per cycle" and "entry free" alike.
func (d *DelayLine[T]) CanPush() bool { return !d.pushed }

// Push inserts v at the entry register. It panics if CanPush is false or v
// is the zero value (which would read as an empty slot).
func (d *DelayLine[T]) Push(v T) {
	var zero T
	if !d.CanPush() || v == zero {
		panic("sim: DelayLine double push, entry occupied or zero value")
	}
	*d.slot(d.tail) = v
	d.count++
	d.pushed = true
}

// Shift advances the line one cycle and returns the value (if any) that has
// completed its traversal. Call exactly once per cycle, before any Push for
// that cycle.
func (d *DelayLine[T]) Shift() (v T, ok bool) {
	var zero T
	// The slot is picked here, not by slot: the call would put Shift over
	// the inliner's budget, and it runs for every busy wire every cycle.
	h := d.head
	s := &d.arr[h&1]
	if d.ext != nil {
		s = &(*d.ext)[h]
	}
	v, *s = *s, zero
	// The new entry register is the just-vacated head slot.
	d.tail, d.pushed = h, false
	if d.head = h + 1; h == d.last {
		d.head = 0
	}
	if ok = v != zero; ok {
		d.count--
	}
	return v, ok
}

// Each calls fn for every in-flight value, oldest (next to exit) first. It
// is a read-only audit hook for invariant checking.
func (d *DelayLine[T]) Each(fn func(T)) {
	var zero T
	n := int(d.last) + 1
	for i := 0; i < n; i++ {
		if v := *d.slot(uint8((int(d.head) + i) % n)); v != zero {
			fn(v)
		}
	}
}
