package arbiter

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The round-robin tests drive Prioritized with flat priorities: the
// tie-break is the only round-robin the router has (RO_RR is every requestor
// at one priority).
var flat = make([]int, 320)

// row is the request bitset over n requestors with the given ones set.
func row(n int, idx ...int) []uint64 {
	r := make([]uint64, (n+63)/64)
	for _, i := range idx {
		r[i>>6] |= 1 << uint(i&63)
	}
	return r
}

// all is the request bitset with every one of n requestors set.
func all(n int) []uint64 {
	r := row(n)
	for i := 0; i < n; i++ {
		r[i>>6] |= 1 << uint(i&63)
	}
	return r
}

// naiveGrant is the arbiter's specification: scan every index in rotation
// order from *ptr, keep the first requestor of the highest priority, and
// move the pointer past it.
func naiveGrant(ptr *int, req []bool, prio []int) int {
	w := None
	for k := range req {
		i := (*ptr + k) % len(req)
		if req[i] && (w == None || prio[i] > prio[w]) {
			w = i
		}
	}
	if w != None {
		*ptr = (w + 1) % len(req)
	}
	return w
}

func TestRoundRobinRotates(t *testing.T) {
	a := NewPrioritized(4)
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.Grant(all(4), flat))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a := NewPrioritized(4)
	req := row(4, 1, 3)
	for _, want := range []int{1, 3, 1} {
		if g := a.Grant(req, flat); g != want {
			t.Fatalf("grant = %d, want %d", g, want)
		}
	}
}

func TestRoundRobinNone(t *testing.T) {
	for _, n := range []int{3, 64, 320} {
		a := Prioritized{n: uint16(n), ptr: uint16(n - 1)}
		if g := a.Grant(row(n), flat); g != None || int(a.ptr) != n-1 {
			t.Fatalf("n=%d: grant = %d, pointer %d; want None, pointer %d", n, g, a.ptr, n-1)
		}
	}
}

// Property: under persistent full load, every requestor is served exactly
// once per n grants (strong fairness), across word boundaries too.
func TestRoundRobinFairness(t *testing.T) {
	if err := quick.Check(func(n16 uint16) bool {
		n := int(n16%319) + 2
		a := NewPrioritized(n)
		req := all(n)
		counts := make([]int, n)
		for i := 0; i < 5*n; i++ {
			counts[a.Grant(req, flat)]++
		}
		for _, c := range counts {
			if c != 5 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrioritizedHighestWins(t *testing.T) {
	a := NewPrioritized(4)
	prio := []int{0, 2, 1, 2}
	// Ties between 1 and 3 break round-robin.
	first := a.Grant(all(4), prio)
	second := a.Grant(all(4), prio)
	if !(first == 1 && second == 3 || first == 3 && second == 1) {
		t.Fatalf("grants %d,%d — must alternate among max-priority", first, second)
	}
	// Non-requesting high priority is ignored.
	if g := a.Grant(row(4, 0, 2), prio); g != 2 {
		t.Fatalf("grant = %d, want 2", g)
	}
}

// With flat priorities the level does not matter: any constant priority
// vector grants the round-robin sequence.
func TestPrioritizedEqualsRRWhenFlat(t *testing.T) {
	p, q := NewPrioritized(5), NewPrioritized(5)
	sevens := []int{7, 7, 7, 7, 7}
	req := row(5, 0, 2, 3)
	for i, want := range []int{0, 2, 3, 0, 2, 3} {
		if g, h := p.Grant(req, flat), q.Grant(req, sevens); g != want || h != want {
			t.Fatalf("grant %d = %d / %d, want %d", i, g, h, want)
		}
	}
}

// Property: a prioritized grant never selects a lower-priority requestor
// while a higher-priority one is requesting.
func TestPrioritizedNeverInverts(t *testing.T) {
	if err := quick.Check(func(reqBits, prioSeed uint16) bool {
		const n = 8
		a := NewPrioritized(n)
		req := []uint64{uint64(reqBits & (1<<n - 1))}
		prio := make([]int, n)
		for i := 0; i < n; i++ {
			prio[i] = int((prioSeed >> (2 * uint(i))) & 3)
		}
		g := a.Grant(req, prio)
		if req[0] == 0 {
			return g == None
		}
		if g == None || req[0]>>uint(g)&1 == 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if req[0]>>uint(i)&1 == 1 && prio[i] > prio[g] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrioritizedStarvesLowUnderLoad(t *testing.T) {
	// Fixed priority + persistent high-priority load starves low priority;
	// this is exactly why RAIR needs DPA's negative feedback. Document the
	// behavior here.
	a := NewPrioritized(2)
	prio := []int{1, 0}
	for i := 0; i < 100; i++ {
		if a.Grant(all(2), prio) != 0 {
			t.Fatal("low priority served while high priority pending")
		}
	}
}

// The Matrix tests state what any fair arbiter owes its requestors — they
// were written against a matrix (least-recently-served) arbiter that nothing
// instantiated — and hold Prioritized to it at flat priority.
func TestMatrixLeastRecentlyServed(t *testing.T) {
	m := NewPrioritized(3)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[m.Grant(all(3), flat)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("first 3 grants not distinct: %v", seen)
	}
	// After serving 0,1,2 the winner order repeats.
	if g := m.Grant(all(3), flat); !seen[g] {
		t.Fatal("unexpected grant")
	}
}

func TestMatrixSingleRequestor(t *testing.T) {
	m := NewPrioritized(4)
	for i := 0; i < 5; i++ {
		if g := m.Grant(row(4, 2), flat); g != 2 {
			t.Fatalf("grant = %d", g)
		}
	}
	if g := m.Grant(row(4), flat); g != None {
		t.Fatal("grant on empty request vector")
	}
}

// Property: over any request history the arbiter produces exactly one
// winner, a requestor, whenever anyone requests.
func TestMatrixAlwaysDecides(t *testing.T) {
	if err := quick.Check(func(steps []uint8) bool {
		const n = 5
		m := NewPrioritized(n)
		for _, s := range steps {
			req := []uint64{uint64(s) & (1<<n - 1)}
			g := m.Grant(req, flat)
			if (req[0] != 0) != (g != None) || (g != None && req[0]>>uint(g)&1 == 0) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGrantMatchesRotationScan: over rows of one to five words, the
// bitset Grant returns the winner naiveGrant finds and leaves the pointer
// it leaves — from any pointer word, with requests on both sides of it and
// priorities drawn from two or three levels so ties are common. Each case
// runs a history of grants, so the pointer the bitset scan left is the one
// the next grant starts from.
func TestGrantMatchesRotationScan(t *testing.T) {
	if err := quick.Check(func(n16, ptr16 uint16, seed int64) bool {
		n := int(n16%320) + 1
		rng := rand.New(rand.NewSource(seed))
		a, ptr := Prioritized{n: uint16(n), ptr: ptr16 % uint16(n)}, int(ptr16)%n
		levels := 2 + rng.Intn(2)
		for step := 0; step < 16; step++ {
			density := rng.Float64()
			req, mask, prio := make([]bool, n), row(n), make([]int, n)
			for i := range req {
				if rng.Float64() < density {
					req[i] = true
					mask[i>>6] |= 1 << uint(i&63)
				}
				prio[i] = rng.Intn(levels)
			}
			want := naiveGrant(&ptr, req, prio)
			if got := a.Grant(mask, prio); got != want || int(a.ptr) != ptr {
				t.Logf("n=%d step %d: Grant %d pointer %d, scan %d pointer %d", n, step, got, a.ptr, want, ptr)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestGrantSingleIsOneHotGrant: GrantSingle(i) is Grant on a request
// vector holding only i — the same index returned and the same pointer
// left behind — for every size up to 320 (five words, the 64-VC ceiling's
// VA row), every pointer position and every requestor. Every uncontended
// SA and VA grant in the router takes the GrantSingle path.
func TestGrantSingleIsOneHotGrant(t *testing.T) {
	req := make([]uint64, 5)
	for n := uint16(1); n <= 320; n++ {
		for ptr := uint16(0); ptr < n; ptr++ {
			for i := 0; i < int(n); i++ {
				a, b := Prioritized{n: n, ptr: ptr}, Prioritized{n: n, ptr: ptr}
				req[i>>6] = 1 << uint(i&63)
				if ga, gb := a.Grant(req[:(n+63)/64], flat), b.GrantSingle(i); ga != gb || a != b {
					t.Fatalf("n=%d ptr=%d i=%d: Grant %d leaves %+v, GrantSingle %d leaves %+v", n, ptr, i, ga, a, gb, b)
				}
				req[i>>6] = 0
			}
		}
	}
}

func TestConstructorsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewPrioritized(0) },
		func() { NewPrioritized(-1) },
		func() { NewPrioritized(1 << 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
