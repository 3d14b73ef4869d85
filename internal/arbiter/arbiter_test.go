package arbiter

import (
	"testing"
	"testing/quick"
)

// The round-robin tests drive Prioritized with flat priorities: the
// tie-break is the only round-robin the router has (RO_RR is every requestor
// at one priority).
var flat = make([]int, 16)

func TestRoundRobinRotates(t *testing.T) {
	a := NewPrioritized(4)
	all := []bool{true, true, true, true}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.Grant(all, flat[:4]))
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
	req := []bool{false, true, false, true}
	for _, want := range []int{1, 3, 1} {
		if g := a.Grant(req, flat[:4]); g != want {
			t.Fatalf("grant = %d, want %d", g, want)
		}
	}
}

func TestRoundRobinNone(t *testing.T) {
	a := NewPrioritized(3)
	if g := a.Grant([]bool{false, false, false}, flat[:3]); g != None {
		t.Fatalf("grant = %d, want None", g)
	}
}

// Property: under persistent full load, every requestor is served exactly
// once per n grants (strong fairness).
func TestRoundRobinFairness(t *testing.T) {
	if err := quick.Check(func(n8 uint8) bool {
		n := int(n8%8) + 2
		a := NewPrioritized(n)
		all := make([]bool, n)
		for i := range all {
			all[i] = true
		}
		counts := make([]int, n)
		for i := 0; i < 5*n; i++ {
			counts[a.Grant(all, flat[:n])]++
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
	req := []bool{true, true, true, true}
	prio := []int{0, 2, 1, 2}
	// Ties between 1 and 3 break round-robin.
	first := a.Grant(req, prio)
	second := a.Grant(req, prio)
	if !(first == 1 && second == 3 || first == 3 && second == 1) {
		t.Fatalf("grants %d,%d — must alternate among max-priority", first, second)
	}
	// Non-requesting high priority is ignored.
	req2 := []bool{true, false, true, false}
	if g := a.Grant(req2, prio); g != 2 {
		t.Fatalf("grant = %d, want 2", g)
	}
}

// With flat priorities the level does not matter: any constant priority
// vector grants the round-robin sequence.
func TestPrioritizedEqualsRRWhenFlat(t *testing.T) {
	p, q := NewPrioritized(5), NewPrioritized(5)
	sevens := []int{7, 7, 7, 7, 7}
	req := []bool{true, false, true, true, false}
	for i, want := range []int{0, 2, 3, 0, 2, 3} {
		if g, h := p.Grant(req, flat[:5]), q.Grant(req, sevens); g != want || h != want {
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
		req := make([]bool, n)
		prio := make([]int, n)
		any := false
		for i := 0; i < n; i++ {
			req[i] = reqBits&(1<<i) != 0
			prio[i] = int((prioSeed >> (2 * uint(i))) & 3)
			any = any || req[i]
		}
		g := a.Grant(req, prio)
		if !any {
			return g == None
		}
		if g == None || !req[g] {
			return false
		}
		for i := 0; i < n; i++ {
			if req[i] && prio[i] > prio[g] {
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
	req := []bool{true, true}
	prio := []int{1, 0}
	for i := 0; i < 100; i++ {
		if a.Grant(req, prio) != 0 {
			t.Fatal("low priority served while high priority pending")
		}
	}
}

// The Matrix tests state what any fair arbiter owes its requestors — they
// were written against a matrix (least-recently-served) arbiter that nothing
// instantiated — and hold Prioritized to it at flat priority.
func TestMatrixLeastRecentlyServed(t *testing.T) {
	m := NewPrioritized(3)
	all := []bool{true, true, true}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[m.Grant(all, flat[:3])] = true
	}
	if len(seen) != 3 {
		t.Fatalf("first 3 grants not distinct: %v", seen)
	}
	// After serving 0,1,2 the winner order repeats.
	if g := m.Grant(all, flat[:3]); !seen[g] {
		t.Fatal("unexpected grant")
	}
}

func TestMatrixSingleRequestor(t *testing.T) {
	m := NewPrioritized(4)
	req := []bool{false, false, true, false}
	for i := 0; i < 5; i++ {
		if g := m.Grant(req, flat[:4]); g != 2 {
			t.Fatalf("grant = %d", g)
		}
	}
	if g := m.Grant(make([]bool, 4), flat[:4]); g != None {
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
			req := make([]bool, n)
			any := false
			for i := 0; i < n; i++ {
				req[i] = s&(1<<uint(i)) != 0
				any = any || req[i]
			}
			g := m.Grant(req, flat[:n])
			if any != (g != None) || (any && !req[g]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGrantSingleIsOneHotGrant: GrantSingle(i) is Grant on a request
// vector holding only i — the same index returned and the same pointer
// left behind — for every size up to 16, every pointer position and every
// requestor. Every uncontended SA and VA grant in the router takes the
// GrantSingle path.
func TestGrantSingleIsOneHotGrant(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for ptr := 0; ptr < n; ptr++ {
			for i := 0; i < n; i++ {
				a, b := Prioritized{n: n, ptr: ptr}, Prioritized{n: n, ptr: ptr}
				req := make([]bool, n)
				req[i] = true
				if ga, gb := a.Grant(req, flat[:n]), b.GrantSingle(i); ga != gb || a != b {
					t.Fatalf("n=%d ptr=%d i=%d: Grant %d leaves %+v, GrantSingle %d leaves %+v", n, ptr, i, ga, a, gb, b)
				}
			}
		}
	}
}

func TestConstructorsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewPrioritized(0) },
		func() { NewPrioritized(-1) },
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

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewPrioritized(3)
	a.Grant([]bool{true}, []int{0, 0, 0})
}
