package arbiter

import (
	"fmt"
	"testing"
)

// BenchmarkPrioritizedGrant times a contended grant at the shapes the router
// arbitrates: SA_in over one port's VCs (5 at DefaultConfig(1), 10 at
// DefaultConfig(2)) with two requestors and with all of them, SA_out over
// the five input ports, and VA_out over every input VC of the router (25
// and 50) with three requestors. Priorities alternate between two levels.
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
		prio := make([]int, c.n)
		for i := range prio {
			prio[i] = i % 2
		}
		b.Run(name, func(b *testing.B) {
			a := NewPrioritized(c.n)
			for i := 0; i < b.N; i++ {
				a.Grant(req, prio)
			}
		})
	}
}
