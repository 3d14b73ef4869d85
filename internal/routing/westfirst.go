package routing

import "rair/internal/topology"

// WestFirst is the west-first turn-model adaptive routing algorithm: all
// westward hops are taken first (deterministically), after which the packet
// may route adaptively among the remaining productive directions. The turn
// model forbids the turns that close dependency cycles, so west-first is
// deadlock-free on every VC without an escape network — included as an
// alternative substrate to demonstrate RAIR's routing-independence
// (Section IV.D: "virtually any deadlock avoidance routing algorithm can be
// incorporated").
//
// The router still reserves escape VCs (its deadlock safety net is
// algorithm-agnostic); under west-first they are just extra DOR-restricted
// capacity.
type WestFirst struct {
	Mesh *topology.Mesh
}

// Route implements Algorithm: westward traffic is fully deterministic (west
// first), everything else routes minimally. XY routing never takes a
// forbidden west-first turn (west hops happen before any north/south hop),
// so the escape network is compatible with the turn model.
func (a WestFirst) Route(cur topology.Coord, dst int) Route {
	rt := minimal(a.Mesh, cur, dst)
	if rt.First == topology.West {
		rt.N = 1
	}
	return rt
}
