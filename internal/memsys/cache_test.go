package memsys

import (
	"testing"
	"testing/quick"

	"rair/internal/sim"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(32<<10, 2, 64) // Table 1 L1: 256 sets
	if n := len(c.ways) / c.assoc; n != 256 {
		t.Fatalf("sets = %d", n)
	}
	c2 := NewCache(256<<10, 16, 64) // Table 1 L2 bank: 256 sets
	if n := len(c2.ways) / c2.assoc; n != 256 {
		t.Fatalf("L2 sets = %d", n)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, 2, 64) },
		func() { NewCache(32<<10, 2, 63) },  // non-power-of-two block
		func() { NewCache(3000, 2, 64) },    // non-power-of-two sets
		func() { NewCache(32<<10, 0, 64) },  // no ways
		func() { NewCache(32<<10, 2, -64) }, // negative block
		func() { NewCache(32<<10, 2, 1) },   // no room for the valid bit
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

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(1<<10, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1030) { // same 64B block
		t.Fatal("same-block access missed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct construction: 2-way, 1 set (128 B cache, 64 B blocks).
	c := NewCache(128, 2, 64)
	a, b, x := uint64(0), uint64(1<<20), uint64(2<<20)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is MRU, b is LRU
	c.Access(x) // evicts b
	// x and a hit (a becomes MRU again), so b, absent, evicts x.
	if !c.Access(x) || !c.Access(a) || c.Access(b) {
		t.Fatal("LRU eviction order wrong")
	}
}

func TestCacheWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := NewCache(32<<10, 2, 64)
	// 256 blocks with 64-block stride per set... simply: sequential 256
	// blocks (half the cache) twice: second pass must be all hits.
	misses := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < 256; i++ {
			if !c.Access(uint64(i * 64)) {
				misses++
			}
		}
	}
	if misses != 256 {
		t.Fatalf("misses = %d, want 256 cold only", misses)
	}
}

// Property: a 1-way (direct-mapped) cache hits iff the previous access to
// the set had the same tag — reference-model equivalence on a tiny cache.
func TestCacheMatchesReferenceModel(t *testing.T) {
	if err := quick.Check(func(addrs []uint16) bool {
		c := NewCache(4*64, 1, 64) // 4 sets, direct mapped
		last := map[uint64]uint64{}
		for _, a16 := range addrs {
			addr := uint64(a16)
			tag := addr >> 6
			set := tag & 3
			want := false
			if prev, ok := last[set]; ok && prev == tag {
				want = true
			}
			if c.Access(addr) != want {
				return false
			}
			last[set] = tag
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sliceCache is the cache as a slice of (tag, valid) lines per set, MRU
// first, grown by append until the set is full: the representation the
// packed Cache replaced, kept as its oracle.
type sliceCache struct {
	sets     [][]line
	ways     int
	setShift uint
	setMask  uint64
}

type line struct {
	tag   uint64
	valid bool
}

func newSliceCache(size, ways, block int) *sliceCache {
	numSets := size / (ways * block)
	c := &sliceCache{ways: ways, setShift: log2(uint64(block)), setMask: uint64(numSets - 1), sets: make([][]line, numSets)}
	for i := range c.sets {
		c.sets[i] = make([]line, 0, ways)
	}
	return c
}

func (c *sliceCache) Access(addr uint64) bool {
	tag := addr >> c.setShift
	idx := tag & c.setMask
	set := c.sets[idx]
	for i, l := range set {
		if l.valid && l.tag == tag {
			copy(set[1:i+1], set[:i])
			set[0] = l
			return true
		}
	}
	if len(set) < c.ways {
		set = append(set, line{})
		c.sets[idx] = set
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: tag, valid: true}
	return false
}

func (c *sliceCache) Invalidate(addr uint64) bool {
	tag := addr >> c.setShift
	set := c.sets[tag&c.setMask]
	for i, l := range set {
		if l.valid && l.tag == tag {
			set[i].valid = false
			return true
		}
	}
	return false
}

// Property: over random Access/Invalidate sequences, the packed cache
// returns what the slice-of-lines cache returns, call for call (so it hits
// and misses alike) — direct-mapped, 2-way and 16-way, on address
// ranges three times the capacity so sets fill, evict and hold
// invalidated ways (block 0 included).
func TestCacheMatchesSliceLRU(t *testing.T) {
	for _, g := range []struct{ size, ways int }{{4 * 64, 1}, {4 * 2 * 64, 2}, {2 * 16 * 64, 16}} {
		blocks := 3 * g.size / 64
		if err := quick.Check(func(seed uint64) bool {
			rng := sim.NewRNG(seed)
			c, ref := NewCache(g.size, g.ways, 64), newSliceCache(g.size, g.ways, 64)
			for range 4000 {
				addr := uint64(rng.Intn(blocks)*64 + rng.Intn(64))
				var got, want bool
				if rng.Intn(4) == 0 {
					got, want = c.Invalidate(addr), ref.Invalidate(addr)
				} else {
					got, want = c.Access(addr), ref.Access(addr)
				}
				if got != want {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%d-way: %v", g.ways, err)
		}
	}
}
