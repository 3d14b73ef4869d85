package memsys

import (
	"math/bits"
	"testing"

	"rair/internal/sim"
)

// Property: the open-addressed directory answers every read, OR-write and
// replacing write as a map does, and holds exactly the map's entries, over
// random blocks (0 and 1<<57 among them) and blocks that share a probe run,
// through at least three growths.
func TestDirectoryMatchesMap(t *testing.T) {
	// collide returns n blocks whose Fibonacci hash lands in the fourth
	// last slot of the first table, so they fill one probe run that wraps.
	collide := func(n int) []uint64 {
		var out []uint64
		for b := uint64(0); len(out) < n; b++ {
			if (b+1)*0x9e3779b97f4a7c15>>(64-bits.Len(dirSlots-1)) == dirSlots-4 {
				out = append(out, b)
			}
		}
		return out
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		keys := append([]uint64{0, 1 << 57, 1<<57 - 1}, collide(12)...)
		for range 6000 {
			keys = append(keys, rng.Uint64()>>(7+rng.Intn(50)))
		}
		var d dirTable
		ref := map[uint64]uint64{}
		growths, size := 0, 0
		for op := range 24000 {
			// Mostly recent keys, so reads, ORs and writes hit live entries.
			k := keys[rng.Intn(min(len(keys), 16+op/2))]
			p := d.sharers(k)
			if *p != ref[k] {
				t.Fatalf("seed %d op %d: block %#x reads %#x, map %#x", seed, op, k, *p, ref[k])
			}
			switch bit := uint64(1) << rng.Intn(64); rng.Intn(3) {
			case 0: // a read adds the block with no sharers
				ref[k] = *p
			case 1:
				*p |= bit
				ref[k] |= bit
			case 2:
				*p = bit
				ref[k] = bit
			}
			if len(d.e) != size {
				growths, size = growths+1, len(d.e)
			}
			if op < 64 || op%1000 == 999 { // the collision run, then every thousandth
				got, err := d.entries()
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if len(got) != len(ref) {
					t.Fatalf("seed %d op %d: %d entries, map %d", seed, op, len(got), len(ref))
				}
				for k, v := range ref {
					if got[k] != v {
						t.Fatalf("seed %d op %d: block %#x holds %#x, map %#x", seed, op, k, got[k], v)
					}
				}
			}
		}
		// The first allocation counts as a growth; three more past it.
		if growths < 4 {
			t.Fatalf("seed %d: table grew %d times to %d slots, want at least 3 growths", seed, growths-1, len(d.e))
		}
	}
}
