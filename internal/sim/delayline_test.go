package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDelayLineLatency(t *testing.T) {
	for _, lat := range []int{1, 2, 3, 7} {
		var d DelayLine[int]
		d.Init(lat)
		d.Push(42)
		for c := 0; c < lat-1; c++ {
			if _, ok := d.Shift(); ok {
				t.Fatalf("lat=%d: value emerged after %d shifts", lat, c+1)
			}
		}
		if v, ok := d.Shift(); !ok || v != 42 {
			t.Fatalf("lat=%d: value did not emerge after %d shifts", lat, lat)
		}
	}
}

func TestDelayLineOnePerCycle(t *testing.T) {
	var d DelayLine[int]
	d.Init(3)
	if !d.CanPush() {
		t.Fatal("fresh line refuses push")
	}
	d.Push(1)
	if d.CanPush() {
		t.Fatal("second push in the same cycle allowed")
	}
	d.Shift()
	if !d.CanPush() {
		t.Fatal("push refused after Shift")
	}
}

func TestDelayLinePipelining(t *testing.T) {
	// A latency-2 line should sustain one value per cycle.
	var d DelayLine[int]
	d.Init(2)
	var got []int
	for c := 0; c < 10; c++ {
		if v, ok := d.Shift(); ok {
			got = append(got, v)
		}
		if d.CanPush() {
			d.Push(c + 1)
		} else {
			t.Fatalf("cycle %d: pipeline stalled", c)
		}
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("out-of-order delivery: got[%d]=%d", i, v)
		}
	}
	if len(got) != 8 { // values 0..7 have emerged by cycle 9
		t.Fatalf("delivered %d values, want 8", len(got))
	}
}

func TestDelayLineBusyDrain(t *testing.T) {
	var d DelayLine[int]
	d.Init(4)
	if d.Busy() {
		t.Fatal("fresh line busy")
	}
	d.Push(1)
	d.Shift()
	d.Push(2)
	if !d.Busy() {
		t.Fatal("line with in-flight values not busy")
	}
	for range 4 {
		d.Shift()
	}
	if d.Busy() {
		t.Fatal("busy after every value emerged")
	}
}

// TestDelayLineInitRange: Init takes latencies in [1, MaxLatency], the
// router configuration's cap, and panics outside it rather than wrap a
// byte index (TestDelayLineMatchesReference runs both ends of the range).
func TestDelayLineInitRange(t *testing.T) {
	for _, lat := range []int{-1, 0, MaxLatency + 1, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Init(%d) did not panic", lat)
				}
			}()
			new(DelayLine[uint8]).Init(lat)
		}()
	}
}

// TestDelayLineZeroPushPanics: the zero value marks an empty slot, so it
// cannot be sent.
func TestDelayLineZeroPushPanics(t *testing.T) {
	for _, lat := range []int{1, 2, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("lat=%d: Push of the zero value did not panic", lat)
				}
			}()
			var d DelayLine[uint8]
			d.Init(lat)
			d.Push(0)
		}()
	}
}

// Property: values always emerge exactly latency cycles after the push, in
// push order.
func TestDelayLineExactLatency(t *testing.T) {
	if err := quick.Check(func(lat8 uint8, pattern []bool) bool {
		lat := int(lat8%5) + 1
		var d DelayLine[int]
		d.Init(lat)
		pushCycle := map[int]int{}
		next := 1
		for c := 0; c < len(pattern)+lat+1; c++ {
			if v, ok := d.Shift(); ok {
				if c != pushCycle[v]+lat {
					return false
				}
			}
			if c < len(pattern) && pattern[c] && d.CanPush() {
				pushCycle[next] = c
				d.Push(next)
				next++
			}
		}
		return !d.Busy()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// flitShaped is msg.Flit's shape (a pointer plus int fields); wireFlit is
// the 16-byte on-wire encoding a flit wire's line carries (router.wireFlit:
// the packet pointer, a uint32 Seq, a VC byte and a type byte).
type (
	flitShaped struct {
		pkt      *int
		typ, seq int
	}
	wireFlit struct {
		pkt     *int
		seq     uint32
		vc, typ uint8
	}
)

// TestDelayLineMatchesReference runs the zero-value-empty DelayLine against
// the slot-valid one it replaced (refDelayLine) on random traffic: every
// cycle both lines shift, then a non-zero value is pushed onto both when
// the reference allows it and the draw says so. Shift's result, Busy, the
// count in flight, CanPush and the Each order must agree after every step,
// at every latency either side of the inline ring's two slots, either side
// of 64 and of the 256 cap, at random densities and pushing every cycle the
// reference allows, with byte, flit-shaped and on-wire flit values. Each
// case runs twice: once shifting every cycle, once skipping the shift of an
// idle line as the foreign-wire poll does, which leaves the line's indices
// behind the reference's and must not show.
func TestDelayLineMatchesReference(t *testing.T) {
	pkts := make([]int, 8)
	for _, lat := range []int{1, 2, 3, 4, 5, 64, 65, 255, 256} {
		for _, skipIdle := range []bool{false, true} {
			match := func(seed int64, p float64) bool {
				rng := rand.New(rand.NewSource(seed))
				return matchesReference(t, lat, skipIdle, rng, p, func() uint8 { return uint8(1 + rng.Intn(255)) }) &&
					matchesReference(t, lat, skipIdle, rng, p, func() flitShaped {
						return flitShaped{pkt: &pkts[rng.Intn(len(pkts))], typ: rng.Intn(4), seq: rng.Intn(3)}
					}) &&
					matchesReference(t, lat, skipIdle, rng, p, func() wireFlit {
						return wireFlit{pkt: &pkts[rng.Intn(len(pkts))], seq: uint32(rng.Intn(3)),
							vc: uint8(rng.Intn(64)), typ: uint8(rng.Intn(4))}
					})
			}
			if !match(int64(lat), 1) {
				t.Fatalf("lat=%d skipIdle=%v: diverged pushing every cycle", lat, skipIdle)
			}
			if err := quick.Check(func(seed int64, density uint8) bool {
				return match(seed, float64(density)/255)
			}, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatalf("lat=%d skipIdle=%v: %v", lat, skipIdle, err)
			}
		}
	}
}

func matchesReference[T comparable](t *testing.T, lat int, skipIdle bool, rng *rand.Rand, p float64, value func() T) bool {
	t.Helper()
	var d DelayLine[T]
	d.Init(lat)
	ref := newRefDelayLine[T](lat)
	cycles := 3*lat + 64
	for c := 0; c < cycles+lat+1; c++ {
		var v T
		var ok bool
		if !skipIdle || d.Busy() {
			v, ok = d.Shift()
		}
		rv, rok := ref.Shift()
		if v != rv || ok != rok {
			t.Logf("lat=%d cycle %d: Shift = %v %v, reference %v %v", lat, c, v, ok, rv, rok)
			return false
		}
		if c < cycles && ref.CanPush() && rng.Float64() < p {
			x := value()
			d.Push(x)
			ref.Push(x)
		}
		var each, refEach []T
		d.Each(func(x T) { each = append(each, x) })
		ref.Each(func(x T) { refEach = append(refEach, x) })
		if d.Busy() != ref.Busy() || int(d.count) != ref.Len() || d.CanPush() != ref.CanPush() ||
			!slices.Equal(each, refEach) {
			t.Logf("lat=%d cycle %d: Busy %v count %d CanPush %v Each %v, reference %v %d %v %v",
				lat, c, d.Busy(), d.count, d.CanPush(), each, ref.Busy(), ref.Len(), ref.CanPush(), refEach)
			return false
		}
	}
	return !d.Busy()
}
