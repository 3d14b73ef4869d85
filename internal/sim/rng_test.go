package sim

import (
	"math"
	"math/bits"
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

// refXoshiro is SplitMix64 seeding and xoshiro256** written out from the
// published algorithms (Vigna; Blackman & Vigna), sharing no code with RNG.
type refXoshiro [4]uint64

func newRefXoshiro(seed uint64) *refXoshiro {
	var x refXoshiro
	for i := range x {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		x[i] = z ^ z>>31
	}
	return &x
}

func (x *refXoshiro) next() uint64 {
	rot := func(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }
	result := rot(x[1]*5, 7) * 9
	t := x[1] << 17
	x[2] ^= x[0]
	x[3] ^= x[1]
	x[1] ^= x[2]
	x[0] ^= x[3]
	x[2] ^= t
	x[3] = rot(x[3], 45)
	return result
}

func TestRNGKnownStream(t *testing.T) {
	// SplitMix64's published first output for seed 0.
	if got := newRefXoshiro(0)[0]; got != 0xe220a8397b1dcdaf {
		t.Fatalf("reference SplitMix64(0) = %#x", got)
	}
	for _, seed := range []uint64{0, 1, 0xfeed} {
		r, ref := NewRNG(seed), newRefXoshiro(seed)
		for i := 0; i < 1000; i++ {
			if got, want := r.Uint64(), ref.next(); got != want {
				t.Fatalf("seed %#x output %d: %#x, reference %#x", seed, i, got, want)
			}
		}
	}
}

// boolScan is the loop NextHit stands for.
func boolScan(r *RNG, p float64, i, n int) int {
	for ; i < n; i++ {
		if r.Bool(p) {
			return i
		}
	}
	return n
}

// drawingState returns a state whose next Uint64 is d<<11 | low, by
// inverting the output function rotl(s1*5, 7)*9 (5 and 9 are odd, so
// invertible mod 2^64); s0, s2 and s3 are arbitrary non-zero words.
func drawingState(d, low uint64) [4]uint64 {
	inv := func(a uint64) uint64 {
		x := a // Newton's iteration doubles the correct low bits each step
		for range 5 {
			x *= 2 - a*x
		}
		return x
	}
	out := d<<11 | low&0x7ff
	s1 := bits.RotateLeft64(out*inv(9), -7) * inv(5)
	return [4]uint64{0x0123456789abcdef, s1, 0xfedcba9876543210, 0x0f0f0f0f0f0f0f0f}
}

func TestNextHitMatchesBool(t *testing.T) {
	check := func(s [4]uint64, p float64, i, n int) bool {
		a, b := &RNG{s: s}, &RNG{s: s}
		got, want := a.NextHit(p, i, n), boolScan(b, p, i, n)
		if got != want {
			t.Errorf("NextHit(%v, %d, %d) = %d, Bool loop %d (state %#x)", p, i, n, got, want, s)
			return false
		}
		for k := 0; k < 4; k++ {
			if a.Uint64() != b.Uint64() {
				t.Errorf("NextHit(%v, %d, %d): stream differs after the scan (state %#x)", p, i, n, s)
				return false
			}
		}
		return true
	}
	ps := []float64{0, -1, math.NaN(), 0x1p-53, 12345 * 0x1p-53, (1<<52 + 1) * 0x1p-53,
		1.0 / 3, 1 - 0x1p-53, 1, 1.5, math.SmallestNonzeroFloat64, 0.05 * 0.7 * 0.1}
	for _, p := range ps {
		for _, in := range [][2]int{{0, 0}, {0, 1}, {0, 64}, {5, 64}, {63, 64}, {64, 64}, {70, 64}} {
			for seed := uint64(0); seed < 8; seed++ {
				check(NewRNG(seed).s, p, in[0], in[1])
			}
		}
		// Draws on either side of the threshold: d = ceil(p·2^53) must fail
		// and d-1 fire, whatever the 11 discarded bits.
		if p > 0 && p < 1 {
			thr := uint64(math.Ceil(p * (1 << 53)))
			for _, d := range []uint64{thr - 1, thr, thr + 1} {
				for _, low := range []uint64{0, 0x7ff} {
					if d < 1<<53 {
						if got := (&RNG{s: drawingState(d, low)}).Uint64(); got != d<<11|low {
							t.Fatalf("drawingState(%#x, %#x) draws %#x", d, low, got)
						}
						check(drawingState(d, low), p, 0, 1)
						check(drawingState(d, low), p, 3, 9)
					}
				}
			}
		}
	}
	// Random thresholds: a 53-bit fraction scaled by 2^-e, on the 2^-53
	// grid at e = 0 and mostly off it (ceil rounds up) for e > 0.
	if err := quick.Check(func(seed, k uint64, e, i8, n8 uint8) bool {
		p := math.Ldexp(float64(k>>11)*0x1p-53, -int(e%40))
		return check(NewRNG(seed).s, p, int(i8%80), int(n8%80)) &&
			check(drawingState(uint64(math.Ceil(p*(1<<53))), seed), p, 0, 1)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
