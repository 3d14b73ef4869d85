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
type Cache struct {
	sets     [][]line
	ways     int
	setShift uint // log2(block size)
	setMask  uint64
	hits     uint64
	misses   uint64
}

type line struct {
	tag   uint64
	valid bool
}

// NewCache builds a cache of size bytes, the given associativity and block
// size (both powers of two; size must divide evenly into sets).
func NewCache(size, ways, block int) *Cache {
	if size <= 0 || ways <= 0 || block <= 0 {
		panic("memsys: non-positive cache geometry")
	}
	if block&(block-1) != 0 {
		panic("memsys: block size must be a power of two")
	}
	numSets := size / (ways * block)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("memsys: %d sets (size %d / ways %d / block %d) not a power of two",
			numSets, size, ways, block))
	}
	c := &Cache{
		ways:     ways,
		setShift: log2(uint64(block)),
		setMask:  uint64(numSets - 1),
		sets:     make([][]line, numSets),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, 0, ways)
	}
	return c
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Access looks up addr, allocating the block on a miss (write-allocate for
// both reads and writes) and updating LRU order. It reports whether the
// access hit.
func (c *Cache) Access(addr uint64) bool {
	tag := addr >> c.setShift
	idx := tag & c.setMask
	set := c.sets[idx]
	for i, l := range set {
		if l.valid && l.tag == tag {
			// Move to MRU position (front).
			copy(set[1:i+1], set[:i])
			set[0] = l
			c.hits++
			return true
		}
	}
	c.misses++
	if len(set) < c.ways {
		set = append(set, line{})
		c.sets[idx] = set
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: tag, valid: true}
	return false
}

// Invalidate drops addr's block if present (coherence invalidation),
// reporting whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
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

// Contains reports whether addr's block is present, without touching LRU
// state.
func (c *Cache) Contains(addr uint64) bool {
	tag := addr >> c.setShift
	for _, l := range c.sets[tag&c.setMask] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Misses reports total miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate reports misses / accesses (0 before any access).
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}
