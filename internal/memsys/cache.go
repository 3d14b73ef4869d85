// Package memsys implements the memory-system substrate of the full-system
// configuration in Table 1: private L1 caches, a shared distributed L2 (one
// bank per node) with region-aware home mapping (the cooperative-cache
// optimization that forms RNoCs), and memory controllers at the four mesh
// corners. Cores drive it with synthetic address streams; every L1 miss
// turns into request/response packets on the NoC, which is how the
// PARSEC-proxy traffic of the application experiments is produced.
package memsys

import "fmt"

// Cache is a set-associative cache with true-LRU replacement. It tracks
// block presence only (no data), which is all traffic generation needs.
//
// The ways are one flat slice of numSets×assoc words, each set MRU first.
// A way holds tag|valid; 0 is a way never filled, and an invalidated way
// keeps its tag without the valid bit and its place in the LRU order until
// it ages out, exactly as a set of (tag, valid) lines would. Tags fit below
// the valid bit because blocks are at least 2 bytes.
type Cache struct {
	ways     []uint64
	assoc    int
	setShift uint // log2(block size)
	setMask  uint64
}

const valid = uint64(1) << 63

// NewCache builds a cache of size bytes, the given associativity and block
// size (both powers of two; size must divide evenly into sets).
func NewCache(size, ways, block int) *Cache {
	if size <= 0 || ways <= 0 || block <= 0 {
		panic("memsys: non-positive cache geometry")
	}
	if block < 2 || block&(block-1) != 0 {
		panic("memsys: block size must be a power of two of at least 2")
	}
	numSets := size / (ways * block)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("memsys: %d sets (size %d / ways %d / block %d) not a power of two",
			numSets, size, ways, block))
	}
	return &Cache{
		ways:     make([]uint64, numSets*ways),
		assoc:    ways,
		setShift: log2(uint64(block)),
		setMask:  uint64(numSets - 1),
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// set returns addr's set and the way word a valid copy of its block holds.
func (c *Cache) set(addr uint64) ([]uint64, uint64) {
	tag := addr >> c.setShift
	i := int(tag&c.setMask) * c.assoc
	return c.ways[i : i+c.assoc], tag | valid
}

// Access looks up addr, allocating the block on a miss (write-allocate for
// both reads and writes) and updating LRU order. It reports whether the
// access hit.
func (c *Cache) Access(addr uint64) bool {
	set, w := c.set(addr)
	for i, x := range set {
		if x == w {
			// Move to MRU position (front).
			copy(set[1:i+1], set[:i])
			set[0] = w
			return true
		}
	}
	copy(set[1:], set) // the LRU way (or a never-filled one) drops off
	set[0] = w
	return false
}

// Invalidate drops addr's block if present (coherence invalidation),
// reporting whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	set, w := c.set(addr)
	for i, x := range set {
		if x == w {
			set[i] = w &^ valid
			return true
		}
	}
	return false
}
