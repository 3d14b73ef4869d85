package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	var or uint64
	for i := 0; i < 64; i++ {
		or |= r.Uint64()
	}
	if or == 0 {
		t.Fatal("zero seed produced an all-zero stream")
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

// TestIntnStreamPinned pins seed 2026's first 1,000 Intn draws for bounds
// from 1 to past 2^32 (where the high word of the 128-bit product depends
// on every partial product): a digest of the whole stream plus its first
// four values. Traffic destinations and the saturation calibration draw
// from Intn, so a change here moves every golden.
func TestIntnStreamPinned(t *testing.T) {
	for _, c := range []struct {
		n      int
		digest uint64
		first  [4]int
	}{
		{1, 0x12633b178b17a745, [4]int{0, 0, 0, 0}},
		{3, 0x78d718c3271469ed, [4]int{1, 0, 2, 2}},
		{7, 0x865efe41fdbea2a3, [4]int{4, 1, 5, 6}},
		{64, 0x35416fdcab6f740d, [4]int{36, 18, 52, 57}},
		{1000, 0xe4b2c95b7ec54ac7, [4]int{573, 283, 812, 893}},
		{1<<33 + 1, 0x7a1a0748633e9c58, [4]int{4928316082, 2436788009, 6979402832, 7676606799}},
	} {
		r := NewRNG(2026)
		digest := uint64(14695981039346656037) // FNV-1a fold over the values
		var first [4]int
		for i := 0; i < 1000; i++ {
			v := r.Intn(c.n)
			if i < len(first) {
				first[i] = v
			}
			digest = (digest ^ uint64(v)) * 1099511628211
		}
		if digest != c.digest || first != c.first {
			t.Errorf("Intn(%d): digest %#x first %v, want %#x %v", c.n, digest, first, c.digest, c.first)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(7)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d far from expectation %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v far from 0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(5)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if f := float64(hits) / trials; math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %v", f)
	}
}
