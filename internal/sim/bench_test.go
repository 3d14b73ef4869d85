package sim

import "testing"

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Intn(64)
	}
}

// BenchmarkDelayLineShift measures the per-cycle cost of advancing a link
// wire in its two steady shapes: "empty" is the idle-path floor every
// quiescent-but-recently-active link pays, "occupied" the full shift with a
// value entering and leaving every cycle.
func BenchmarkDelayLineShift(b *testing.B) {
	b.Run("empty", func(b *testing.B) {
		var d DelayLine[int]
		d.Init(3)
		for i := 0; i < b.N; i++ {
			d.Shift()
		}
	})
	b.Run("occupied", func(b *testing.B) {
		var d DelayLine[int]
		d.Init(3)
		for i := 0; i < b.N; i++ {
			if d.CanPush() {
				d.Push(i + 1)
			}
			d.Shift()
		}
	})
}
