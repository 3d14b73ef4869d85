package sim

// DelayLine models a fixed-latency pipeline register chain (a link, a credit
// return wire). A value pushed at cycle t pops out exactly latency cycles
// later. The line must be advanced exactly once per simulated cycle via
// Shift; a cheap occupancy counter lets idle links skip work.
//
// At most one value may enter per cycle, matching a single-flit-wide link.
// A slot holding T's zero value is empty, so the zero value cannot be sent
// (Push panics on it) and a slot costs exactly one T: a flit wire's slot is
// its 32-byte msg.Flit, a credit wire's its one-byte VC tag.
//
// The ring indices are maintained with conditional wraps instead of modulo
// arithmetic: Shift and CanPush sit on the simulator's hottest path (every
// busy link, every cycle) and an integer division per call is measurable.
// They are int32 because latency is at most a few hundred cycles.
type DelayLine[T comparable] struct {
	slots  []T
	head   int32 // index shifted out next
	tail   int32 // entry register: index pushes land in
	count  int32
	pushed bool // guards one-push-per-cycle
	full   bool // shadows slots[tail] != zero so CanPush reads no slot memory

	// arr is inline ring storage: lines of latency <= len(arr) point slots
	// at it, so short wires (the common case — credit wires are latency 1,
	// flit wires default to 2) live in the same cache lines as the header
	// and cost no separate allocation. Because slots then aliases arr, an
	// initialized DelayLine must never be copied by value; Init only runs
	// against the line's final address.
	arr [4]T
}

// Init initializes d in place with the given latency (>= 1), using the
// inline ring when the latency fits. d must already sit at its final
// address and must not be copied afterwards.
func (d *DelayLine[T]) Init(latency int) {
	if latency < 1 {
		panic("sim: DelayLine latency must be >= 1")
	}
	*d = DelayLine[T]{tail: int32(latency - 1)}
	if latency <= len(d.arr) {
		d.slots = d.arr[:latency:latency]
	} else {
		d.slots = make([]T, latency)
	}
}

// Busy reports whether any value is in flight.
func (d *DelayLine[T]) Busy() bool { return d.count > 0 }

// CanPush reports whether a value may enter this cycle (one per cycle, and
// the entry register must be free).
func (d *DelayLine[T]) CanPush() bool {
	return !d.pushed && !d.full
}

// Push inserts v at the entry register. It panics if CanPush is false or v
// is the zero value (which would read as an empty slot).
func (d *DelayLine[T]) Push(v T) {
	var zero T
	if !d.CanPush() || v == zero {
		panic("sim: DelayLine double push, entry occupied or zero value")
	}
	d.slots[d.tail] = v
	d.count++
	d.pushed = true
	d.full = true
}

// Shift advances the line one cycle and returns the value (if any) that has
// completed its traversal. Call exactly once per cycle, before any Push for
// that cycle.
func (d *DelayLine[T]) Shift() (v T, ok bool) {
	var zero T
	d.pushed = false
	v = d.slots[d.head]
	d.slots[d.head] = zero
	// The new entry register is the just-vacated head slot.
	d.tail = d.head
	d.full = false
	if d.head++; int(d.head) == len(d.slots) {
		d.head = 0
	}
	if v != zero {
		d.count--
		return v, true
	}
	return v, false
}

// Len reports how many values are in flight.
func (d *DelayLine[T]) Len() int { return int(d.count) }

// Each calls fn for every in-flight value, oldest (next to exit) first. It
// is a read-only audit hook for invariant checking.
func (d *DelayLine[T]) Each(fn func(T)) {
	var zero T
	for i := 0; i < len(d.slots); i++ {
		if v := d.slots[(int(d.head)+i)%len(d.slots)]; v != zero {
			fn(v)
		}
	}
}
