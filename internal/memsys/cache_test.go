package memsys

import (
	"testing"
	"testing/quick"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(32<<10, 2, 64) // Table 1 L1: 256 sets
	if len(c.sets) != 256 {
		t.Fatalf("sets = %d", len(c.sets))
	}
	c2 := NewCache(256<<10, 16, 64) // Table 1 L2 bank: 256 sets
	if len(c2.sets) != 256 {
		t.Fatalf("L2 sets = %d", len(c2.sets))
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, 2, 64) },
		func() { NewCache(32<<10, 2, 63) },  // non-power-of-two block
		func() { NewCache(3000, 2, 64) },    // non-power-of-two sets
		func() { NewCache(32<<10, 0, 64) },  // no ways
		func() { NewCache(32<<10, 2, -64) }, // negative block
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
	if c.hits != 2 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.hits, c.Misses())
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
	if !c.Contains(a) || c.Contains(b) || !c.Contains(x) {
		t.Fatal("LRU eviction order wrong")
	}
}

func TestCacheContainsDoesNotTouchLRU(t *testing.T) {
	c := NewCache(128, 2, 64)
	a, b, x := uint64(0), uint64(1<<20), uint64(2<<20)
	c.Access(a)
	c.Access(b)   // order: b (MRU), a (LRU)
	c.Contains(a) // must NOT refresh a
	c.Access(x)   // evicts a
	if c.Contains(a) || !c.Contains(b) {
		t.Fatal("Contains must not update recency")
	}
}

func TestCacheWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := NewCache(32<<10, 2, 64)
	// 256 blocks with 64-block stride per set... simply: sequential 256
	// blocks (half the cache) twice: second pass must be all hits.
	for round := 0; round < 2; round++ {
		for i := 0; i < 256; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if c.Misses() != 256 {
		t.Fatalf("misses = %d, want 256 cold only", c.Misses())
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

func TestMissRate(t *testing.T) {
	c := NewCache(128, 2, 64)
	if c.MissRate() != 0 {
		t.Fatal("fresh cache miss rate")
	}
	c.Access(0)
	c.Access(0)
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}
