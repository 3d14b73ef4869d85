// Package arbiter provides the arbitration primitives used at every
// contention point of the router: round-robin, priority-class arbitration
// with round-robin tie-breaking (the shape all RAIR/STC policies reduce to),
// and a matrix (least-recently-served) arbiter.
package arbiter

// None is returned when no input is requesting.
const None = -1

// RoundRobin grants one of n requestors per call, rotating a pointer so that
// the most recently served requestor has the lowest priority next time.
type RoundRobin struct {
	n, ptr int
}

// NewRoundRobin returns an arbiter over n requestors.
func NewRoundRobin(n int) *RoundRobin {
	if n < 1 {
		panic("arbiter: need at least one requestor")
	}
	return &RoundRobin{n: n}
}

// N reports the requestor count.
func (a *RoundRobin) N() int { return a.n }

// Grant returns the winning index among req (true = requesting), or None.
// The search starts at the rotating pointer; on a grant the pointer moves
// just past the winner.
func (a *RoundRobin) Grant(req []bool) int {
	if len(req) != a.n {
		panic("arbiter: request vector size mismatch")
	}
	for idx := a.ptr; idx < a.n; idx++ {
		if req[idx] {
			a.ptr = idx + 1
			if a.ptr == a.n {
				a.ptr = 0
			}
			return idx
		}
	}
	for idx := 0; idx < a.ptr; idx++ {
		if req[idx] {
			a.ptr = idx + 1
			return idx
		}
	}
	return None
}

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

// Matrix implements a matrix arbiter: a triangular matrix of "i beats j"
// bits updated so the winner becomes lowest priority against everyone.
// It provides strong fairness (least recently served wins) and is used in
// tests as a fairness reference.
type Matrix struct {
	n     int
	beats [][]bool // beats[i][j]: i has priority over j
}

// NewMatrix returns a matrix arbiter over n requestors; initially lower
// indices beat higher ones.
func NewMatrix(n int) *Matrix {
	if n < 1 {
		panic("arbiter: need at least one requestor")
	}
	m := &Matrix{n: n, beats: make([][]bool, n)}
	for i := range m.beats {
		m.beats[i] = make([]bool, n)
		for j := i + 1; j < n; j++ {
			m.beats[i][j] = true
		}
	}
	return m
}

// Grant returns the requestor that beats all other requestors, or None.
func (m *Matrix) Grant(req []bool) int {
	if len(req) != m.n {
		panic("arbiter: request vector size mismatch")
	}
	winner := None
	for i := 0; i < m.n; i++ {
		if !req[i] {
			continue
		}
		wins := true
		for j := 0; j < m.n; j++ {
			if j != i && req[j] && !m.beats[i][j] {
				wins = false
				break
			}
		}
		if wins {
			winner = i
			break
		}
	}
	if winner != None {
		for j := 0; j < m.n; j++ {
			if j != winner {
				m.beats[winner][j] = false
				m.beats[j][winner] = true
			}
		}
	}
	return winner
}
