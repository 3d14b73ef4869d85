package telemetry

import "testing"

// ringCycles pushes n samples stamped 1..n into a ring of the given
// capacity and returns the cycles ordered() yields.
func ringCycles(cap, n int) []int64 {
	var r winRing
	for i := 1; i <= n; i++ {
		r.push(cap, WindowSample{Cycle: int64(i)})
	}
	out := r.ordered()
	cycles := make([]int64, len(out))
	for i, s := range out {
		cycles[i] = s.Cycle
	}
	return cycles
}

// TestWinRingGrowsOnDemand: the ring reserves nothing up front, so one
// closed window in a ring of the default capacity holds a small buffer, not
// 4096 samples' worth per router.
func TestWinRingGrowsOnDemand(t *testing.T) {
	var r winRing
	r.push(4096, WindowSample{Cycle: 1})
	if c := cap(r.buf); c > 8 {
		t.Fatalf("cap(buf) = %d after one push, want a small buffer", c)
	}
}

func TestWinRingBelowCap(t *testing.T) {
	got := ringCycles(4, 3)
	want := []int64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ordered() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ordered() = %v, want %v", got, want)
		}
	}
}

// TestWinRingWraparound pushes past WindowCap and checks that the ring
// keeps exactly the newest cap samples in chronological order, across
// several wrap positions (including multiple full revolutions).
func TestWinRingWraparound(t *testing.T) {
	for _, tc := range []struct{ cap, n int }{
		{4, 4},  // exactly full, no overwrite yet
		{4, 5},  // first overwrite
		{4, 7},  // mid-revolution
		{4, 8},  // wrap lands back on slot 0
		{4, 21}, // several revolutions
		{1, 6},  // degenerate single-slot ring
	} {
		got := ringCycles(tc.cap, tc.n)
		if len(got) != tc.cap {
			t.Fatalf("cap=%d n=%d: kept %d samples, want %d (%v)", tc.cap, tc.n, len(got), tc.cap, got)
		}
		for i, c := range got {
			want := int64(tc.n - tc.cap + 1 + i)
			if c != want {
				t.Fatalf("cap=%d n=%d: ordered()[%d] = %d, want %d (full: %v)", tc.cap, tc.n, i, c, want, got)
			}
		}
	}
}

// TestWinRingOrderedChronological checks the ordering property directly:
// whatever the push count, ordered() must be strictly increasing in Cycle.
func TestWinRingOrderedChronological(t *testing.T) {
	for n := 0; n <= 20; n++ {
		got := ringCycles(6, n)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("n=%d: ordered() not chronological: %v", n, got)
			}
		}
	}
}
