package arbiter

import "testing"

func BenchmarkPrioritizedGrant(b *testing.B) {
	a := NewPrioritized(25)
	req := make([]bool, 25)
	prio := make([]int, 25)
	for i := 0; i < 25; i += 3 {
		req[i] = true
		prio[i] = i % 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Grant(req, prio)
	}
}
