package memsys

import (
	"fmt"
	"math/bits"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
)

// The warm-up as it was written before the sharer directory became an
// open-addressed table: Go-map directories, the float out-of-region test,
// modulo bank picks and an LRU that moves ways with copy. System.Prewarm
// must leave exactly the state refSystem.Prewarm leaves.

// refCache is the packed cache with the copy-based LRU.
type refCache struct {
	ways     []uint64
	assoc    int
	setShift uint
	setMask  uint64
}

func newRefCache(size, ways, block int) *refCache {
	c := NewCache(size, ways, block)
	return &refCache{ways: c.ways, assoc: c.assoc, setShift: c.setShift, setMask: c.setMask}
}

func (c *refCache) Access(addr uint64) bool {
	tag := addr >> c.setShift
	i := int(tag&c.setMask) * c.assoc
	set, w := c.ways[i:i+c.assoc], tag|valid
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

type refCore struct {
	node   int
	app    int
	l1     *refCache
	stream AddressStream
}

type refSystem struct {
	cfg   SystemConfig
	rng   *sim.RNG
	cores []*refCore
	banks []*refCache
	homes [][]int
	dirs  []map[uint64]uint64
}

func newRefSystem(cfg SystemConfig, regions *region.Map, streams []AddressStream, seed uint64) *refSystem {
	n := regions.Mesh().N()
	s := &refSystem{cfg: cfg, rng: sim.NewRNG(seed), homes: make([][]int, regions.NumApps())}
	for app := range s.homes {
		s.homes[app] = regions.Nodes(app)
	}
	for node := 0; node < n; node++ {
		s.banks = append(s.banks, newRefCache(cfg.L2Size, cfg.L2Ways, cfg.Block))
		s.dirs = append(s.dirs, make(map[uint64]uint64))
		s.cores = append(s.cores, &refCore{node: node, app: regions.AppAt(node),
			l1: newRefCache(cfg.L1Size, cfg.L1Ways, cfg.Block), stream: streams[node]})
	}
	return s
}

func (s *refSystem) HomeBank(app int, addr uint64) int {
	block := addr / uint64(s.cfg.Block)
	h := splitmix(block ^ (uint64(app+1) << 56))
	var nodes []int
	if app >= 0 && app < len(s.homes) {
		nodes = s.homes[app]
	}
	if len(nodes) == 0 || float64((h>>32)&0xffff)/65536.0 < s.cfg.SharedFrac {
		return int(h % uint64(len(s.banks)))
	}
	return nodes[int(h%uint64(len(nodes)))]
}

func (s *refSystem) Prewarm(accessesPerCore int) {
	for _, c := range s.cores {
		if c.stream == nil {
			continue
		}
		for i := 0; i < accessesPerCore; i++ {
			a, issued := c.stream.Next(s.rng)
			if !issued {
				continue
			}
			if c.l1.Access(a.Addr) {
				continue
			}
			home := s.HomeBank(c.app, a.Addr)
			s.banks[home].Access(a.Addr)
			if len(s.banks) <= 64 {
				block := a.Addr / uint64(s.cfg.Block)
				me := uint64(1) << uint(c.node%64)
				if a.Write {
					s.dirs[home][block] = me
				} else {
					s.dirs[home][block] |= me
				}
			}
		}
	}
}

// entries returns the directory's contents as a map, or an error if a key
// is stored twice, lies past a free slot of its probe run (a linear probe
// from its Fibonacci hash, wrapping at the table's end, would miss it), the
// table is not a power of two or the entry count is off.
func (d *dirTable) entries() (map[uint64]uint64, error) {
	m := make(map[uint64]uint64, d.n)
	if len(d.e)&(len(d.e)-1) != 0 {
		return nil, fmt.Errorf("%d slots", len(d.e))
	}
	for j, x := range d.e {
		if x.key == 0 {
			continue
		}
		if _, dup := m[x.key-1]; dup {
			return nil, fmt.Errorf("block %#x stored twice", x.key-1)
		}
		m[x.key-1] = x.mask
		i := int(x.key * 0x9e3779b97f4a7c15 >> (64 - bits.Len(uint(len(d.e)-1))))
		for ; i != j; i = (i + 1) % len(d.e) {
			if d.e[i].key == 0 {
				return nil, fmt.Errorf("block %#x in slot %d lies past free slot %d", x.key-1, j, i)
			}
		}
	}
	if len(m) != d.n {
		return nil, fmt.Errorf("%d entries stored, count says %d", len(m), d.n)
	}
	return m, nil
}

func diffWays(what string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d ways, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s way %d: %#x, reference %#x", what, i, got[i], want[i])
		}
	}
	return nil
}

// CheckPrewarm warms a System and the reference over streams built fresh
// by mk for each, from the same seed, and reports the first difference in
// an L1 or L2 way, a directory entry (missing, extra or with another mask)
// or the next RNG draw.
func CheckPrewarm(cfg SystemConfig, regs *region.Map, mk func() []AddressStream, seed uint64, accesses int) error {
	sys := New(cfg, regs, mk(), seed, func(int, *msg.Packet, int64) {})
	ref := newRefSystem(cfg, regs, mk(), seed)
	sys.Prewarm(accesses)
	ref.Prewarm(accesses)
	for n := range sys.cores {
		if err := diffWays(fmt.Sprintf("core %d L1", n), sys.cores[n].l1.ways, ref.cores[n].l1.ways); err != nil {
			return err
		}
		if err := diffWays(fmt.Sprintf("bank %d L2", n), sys.banks[n].ways, ref.banks[n].ways); err != nil {
			return err
		}
		got, err := sys.dirs[n].entries()
		if err != nil {
			return fmt.Errorf("bank %d directory: %v", n, err)
		}
		if len(got) != len(ref.dirs[n]) {
			return fmt.Errorf("bank %d directory: %d entries, reference %d", n, len(got), len(ref.dirs[n]))
		}
		for block, want := range ref.dirs[n] {
			if mask, ok := got[block]; !ok || mask != want {
				return fmt.Errorf("bank %d directory block %#x: mask %#x (present %v), reference %#x", n, block, mask, ok, want)
			}
		}
	}
	if got, want := sys.rng.Uint64(), ref.rng.Uint64(); got != want {
		return fmt.Errorf("next draw %#x, reference %#x", got, want)
	}
	return nil
}
