// Package arbiter provides the arbitration primitive used at every
// contention point of the router: priority-class arbitration with
// round-robin tie-breaking, the shape all RAIR/STC policies reduce to (plain
// round-robin is the flat-priority case).
package arbiter

import (
	"math"
	"math/bits"
)

// None is returned when no input is requesting.
const None = -1

// Prioritized grants the requestor with the highest priority class, breaking
// ties round-robin. This is the hardware shape of all the paper's policies:
// a small priority computed per requestor (from batching/ranking in STC, or
// native/foreign status and DPA state in RAIR) in front of a fair arbiter.
// It is four bytes: the router's arbiters serve at most NumDirs×64
// requestors (Config.Validate's VC cap), so both fields fit a uint16.
type Prioritized struct {
	n, ptr uint16
}

// NewPrioritized returns a priority arbiter over n requestors, by value: the
// router embeds its arbiters and carves them from slabs rather than chasing
// one heap object per contention point.
func NewPrioritized(n int) Prioritized {
	if n < 1 || n > math.MaxUint16 {
		panic("arbiter: need between 1 and 65535 requestors")
	}
	return Prioritized{n: uint16(n)}
}

// Grant returns the index of a requesting input with maximal prio, ties
// broken round-robin, or None. req is a bitset over the n requestors (bit
// i&63 of word i>>6, every word of ⌈n/64⌉ present, no bit at or above n);
// prio is read only at requesting indices and must stay above math.MinInt.
// The scan visits the set bits alone, from the pointer up to n and then
// from 0 up to the pointer, so a grant costs the number of requestors plus
// the number of words.
func (a *Prioritized) Grant(req []uint64, prio []int) int {
	best, bestPrio := None, math.MinInt
	nw, pw, pb := len(req), int(a.ptr>>6), uint(a.ptr&63)
	// Pass k visits word pw+k (wrapping); the pointer's word is visited
	// twice, its bits at and above the pointer first and the rest last.
	for k := 0; k <= nw; k++ {
		w := pw + k
		if w >= nw {
			w -= nw
		}
		m := req[w]
		switch k {
		case 0:
			m &= ^uint64(0) << pb
		case nw:
			m &= 1<<pb - 1
		}
		for ; m != 0; m &= m - 1 {
			if i := w<<6 | bits.TrailingZeros64(m); prio[i] > bestPrio {
				best, bestPrio = i, prio[i]
			}
		}
	}
	if best != None {
		a.GrantSingle(best)
	}
	return best
}

// GrantSingle commits a grant when the caller already knows idx is the only
// requestor: the outcome and the round-robin pointer update are exactly
// those of Grant with a one-hot request vector, without scanning it.
func (a *Prioritized) GrantSingle(idx int) int {
	// idx+1 <= n always, so the wrap is a compare instead of a division
	// (this sits on the uncontended fast path of every SA/VA grant).
	a.ptr = uint16(idx + 1)
	if a.ptr == a.n {
		a.ptr = 0
	}
	return idx
}
