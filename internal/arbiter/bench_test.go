package arbiter

import (
	"fmt"
	"testing"
)

// BenchmarkPrioritizedGrant times a contended grant at the shapes the router
// arbitrates: SA_in over one port's VCs (5 at DefaultConfig(1), 10 at
// DefaultConfig(2)) with two requestors and with all of them, SA_out over
// the five input ports, and VA_out over every input VC of the router (25
// and 50) with three requestors. Each shape runs three ways: "row" grants
// over a priority row alternating between two levels (what Rank and Age
// still do), "flat" grants with a nil row, and "narrowed" first keeps the
// requestors of the high level by one mask intersection per word, then
// grants flat (the native/foreign rules).
func BenchmarkPrioritizedGrant(b *testing.B) {
	for _, c := range []struct {
		stage string
		n     int
		req   []int // nil: all n request
	}{
		{"SA_in", 5, []int{1, 3}},
		{"SA_in", 5, nil},
		{"SA_in", 10, []int{2, 7}},
		{"SA_in", 10, nil},
		{"SA_out", 5, []int{0, 2, 4}},
		{"VA_out", 25, []int{3, 11, 20}},
		{"VA_out", 50, []int{4, 23, 41}},
	} {
		req := row(c.n, c.req...)
		name := fmt.Sprintf("%s/n=%d/req=%d", c.stage, c.n, len(c.req))
		if c.req == nil {
			req, name = all(c.n), fmt.Sprintf("%s/n=%d/req=all", c.stage, c.n)
		}
		prio, hi := make([]int, c.n), row(c.n)
		for i := range prio {
			if prio[i] = i % 2; prio[i] == 1 {
				hi[i>>6] |= 1 << uint(i&63)
			}
		}
		b.Run(name+"/row", func(b *testing.B) {
			a := NewPrioritized(c.n)
			for i := 0; i < b.N; i++ {
				a.Grant(req, prio)
			}
		})
		b.Run(name+"/flat", func(b *testing.B) {
			a := NewPrioritized(c.n)
			for i := 0; i < b.N; i++ {
				a.Grant(req, nil)
			}
		})
		b.Run(name+"/narrowed", func(b *testing.B) {
			a, narrowed := NewPrioritized(c.n), row(c.n)
			for i := 0; i < b.N; i++ {
				var any uint64
				for w := range req {
					narrowed[w] = req[w] & hi[w]
					any |= narrowed[w]
				}
				if any == 0 {
					a.Grant(req, nil)
					continue
				}
				a.Grant(narrowed, nil)
			}
		})
	}
}
