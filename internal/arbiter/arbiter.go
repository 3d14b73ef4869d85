// Package arbiter provides the arbitration primitive used at every
// contention point of the router: priority-class arbitration with
// round-robin tie-breaking, the shape all RAIR/STC policies reduce to (plain
// round-robin is the flat-priority case).
package arbiter

// None is returned when no input is requesting.
const None = -1

// Prioritized grants the requestor with the highest priority class, breaking
// ties round-robin. This is the hardware shape of all the paper's policies:
// a small priority computed per requestor (from batching/ranking in STC, or
// native/foreign status and DPA state in RAIR) in front of a fair arbiter.
type Prioritized struct {
	n, ptr int
}

// NewPrioritized returns a priority arbiter over n requestors, by value: the
// router embeds its arbiters and carves them from slabs rather than chasing
// one heap object per contention point.
func NewPrioritized(n int) Prioritized {
	if n < 1 {
		panic("arbiter: need at least one requestor")
	}
	return Prioritized{n: n}
}

// Grant returns the index of a requesting input with maximal prio, ties
// broken round-robin, or None. req and prio must both have length n.
func (a *Prioritized) Grant(req []bool, prio []int) int {
	if len(req) != a.n || len(prio) != a.n {
		panic("arbiter: request/priority vector size mismatch")
	}
	best, bestPrio := None, 0
	for idx := a.ptr; idx < a.n; idx++ {
		if req[idx] && (best == None || prio[idx] > bestPrio) {
			best, bestPrio = idx, prio[idx]
		}
	}
	for idx := 0; idx < a.ptr; idx++ {
		if req[idx] && (best == None || prio[idx] > bestPrio) {
			best, bestPrio = idx, prio[idx]
		}
	}
	if best != None {
		a.ptr = best + 1
		if a.ptr == a.n {
			a.ptr = 0
		}
	}
	return best
}

// GrantSingle commits a grant when the caller already knows idx is the only
// requestor: the outcome and the round-robin pointer update are exactly
// those of Grant with a one-hot request vector, without scanning it.
func (a *Prioritized) GrantSingle(idx int) int {
	// idx+1 <= n always, so the wrap is a compare instead of a division
	// (this sits on the uncontended fast path of every SA/VA grant).
	a.ptr = idx + 1
	if a.ptr == a.n {
		a.ptr = 0
	}
	return idx
}
