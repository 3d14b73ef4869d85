package router

import (
	"math/bits"
	"testing"
)

// BenchmarkWakeEnqueue measures arming a component in the shard store's
// wake bitmap — the cost every flit arrival and injection pays.
func BenchmarkWakeEnqueue(b *testing.B) {
	s := NewSoA(DefaultConfig(1), nil, nil, nil, nil, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.armR(i & 63)
	}
}

// BenchmarkWakeDrain measures the engine's armed-router sweep skeleton
// (word scan, trailing-zeros walk, keep-mask rebuild) at the densities that
// bracket real workloads: a nearly idle shard, a loaded region, and full
// saturation. Work is left zero so every visited bit is dropped — the pure
// drain cost with no component tick mixed in.
func BenchmarkWakeDrain(b *testing.B) {
	for _, armed := range []int{1, 8, 64} {
		b.Run(map[int]string{1: "sparse", 8: "regional", 64: "saturated"}[armed], func(b *testing.B) {
			s := NewSoA(DefaultConfig(1), nil, nil, nil, nil, 64)
			b.ReportAllocs()
			visited := 0
			for i := 0; i < b.N; i++ {
				for li := 0; li < armed; li++ {
					s.armR(li * (64 / armed))
				}
				for wi, w := range s.ArmedR {
					keep := uint64(0)
					base := wi << 6
					for m := w; m != 0; m &= m - 1 {
						li := base + bits.TrailingZeros64(m)
						visited++
						if s.Work[li] > 0 {
							keep |= 1 << (uint(li) & 63)
						}
					}
					s.ArmedR[wi] = keep
				}
			}
			if visited != b.N*armed {
				b.Fatalf("sweep visited %d bits, want %d", visited, b.N*armed)
			}
		})
	}
}
