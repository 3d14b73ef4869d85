// Package routing provides the routing algorithms used in the evaluation:
// dimension-ordered XY routing, minimal fully-adaptive routing with a
// Duato-style XY escape path, and the two output-selection functions the
// paper compares — Local (credit/free-buffer based, the "typical adaptive
// routing algorithm that uses the information available at the local
// router") and DBAR (non-local congestion aggregated along dimensions,
// clipped at region boundaries so other regions' load does not interfere
// with in-region decisions, per Figure 4).
//
// RAIR itself places no restriction on routing (Section IV.D); the router
// composes any Algorithm with any Selector.
package routing

import (
	"math/bits"

	"rair/internal/region"
	"rair/internal/topology"
)

// Route is an algorithm's answer for one (router, destination) pair: the N
// productive output directions in preference order (First, then Second when
// N is 2; the X dimension first, Local alone when the packet has arrived),
// and Esc, the single deadlock-free (dimension-ordered) direction — escape
// VCs may only be requested on it. Every algorithm here is a pure function of
// two coordinates and the region bits, so routers recompute it per packet
// instead of caching it per destination; scalar fields keep it in registers.
type Route struct {
	First, Second topology.Dir
	N             int
	Esc           topology.Dir
}

// Algorithm produces the candidate output directions for a packet.
type Algorithm interface {
	// Route returns the route to node dst for a packet at the router with
	// coordinate cur (a router caches its own; dst's is derived per call).
	Route(cur topology.Coord, dst int) Route
}

// minimalRoutes tabulates minimal adaptive routing — every productive
// direction, X before Y, with the XY escape (always the first candidate) —
// over all it depends on in a mesh: the signs (sx, sy) of the offset to the
// destination, indexed 3*(sx+1) + (sy+1). A lookup keeps the per-packet route
// free of data-dependent branches, which destinations make unpredictable.
var minimalRoutes = [9]Route{
	{topology.West, topology.North, 2, topology.West},
	{topology.West, 0, 1, topology.West},
	{topology.West, topology.South, 2, topology.West},
	{topology.North, 0, 1, topology.North},
	{topology.Local, 0, 1, topology.Local},
	{topology.South, 0, 1, topology.South},
	{topology.East, topology.North, 2, topology.East},
	{topology.East, 0, 1, topology.East},
	{topology.East, topology.South, 2, topology.East},
}

// minimal returns the minimal adaptive route from cur to dst on m.
func minimal(m *topology.Mesh, cur topology.Coord, dst int) Route {
	sign := func(d int) int { return d>>(bits.UintSize-1) | int(uint(-d)>>(bits.UintSize-1)) }
	cd := m.Coord(dst)
	return minimalRoutes[3*sign(cd.X-cur.X)+sign(cd.Y-cur.Y)+4]
}

// XY is deterministic dimension-ordered routing: the only candidate is the
// escape direction itself.
type XY struct {
	Mesh *topology.Mesh
}

// Route implements Algorithm.
func (a XY) Route(cur topology.Coord, dst int) Route {
	rt := minimal(a.Mesh, cur, dst)
	rt.N = 1
	return rt
}

// MinimalAdaptive offers every productive direction (at most two in a mesh)
// and relies on an escape VC network routed XY for deadlock freedom, per
// Duato's theory.
type MinimalAdaptive struct {
	Mesh *topology.Mesh
}

// Route implements Algorithm.
func (a MinimalAdaptive) Route(cur topology.Coord, dst int) Route {
	return minimal(a.Mesh, cur, dst)
}

// CongestionView is the congestion information a router exposes to its
// selection function.
type CongestionView interface {
	// OutputFree reports the total downstream credits available at the
	// output port in direction d (the local, credit-based signal).
	OutputFree(d topology.Dir) int
	// PathOccupancy reports the aggregated occupancy of the next hops
	// routers along direction d (the DBAR-style non-local signal, each
	// router one cycle older per hop, as a one-hop-per-cycle relay).
	PathOccupancy(d topology.Dir, hops int) int
}

// Selector picks one direction among the candidates returned by an
// Algorithm.
type Selector interface {
	// Select returns one of dirs (len >= 1) for a packet at cur heading
	// to dst given the router's congestion view.
	Select(cur, dst int, dirs []topology.Dir, view CongestionView) topology.Dir
}

// ConsumesCongestion reports whether sel may read the non-local signal
// (CongestionView.PathOccupancy), so the network must keep DBAR's view:
// every selector but LocalSelector, which reads only the credit signal.
func ConsumesCongestion(sel Selector) bool {
	_, local := sel.(LocalSelector)
	return !local
}

// LocalSelector picks the candidate with the most free downstream credits,
// breaking ties toward the first candidate (the X dimension, keeping the
// tie-break deterministic).
type LocalSelector struct{}

// Select implements Selector.
func (LocalSelector) Select(cur, dst int, dirs []topology.Dir, view CongestionView) topology.Dir {
	best := dirs[0]
	bestFree := view.OutputFree(best)
	for _, d := range dirs[1:] {
		if f := view.OutputFree(d); f > bestFree {
			best, bestFree = d, f
		}
	}
	return best
}

// DBARSelector implements the DBAR selection function: candidates are
// scored by the congestion of the routers along the candidate dimension,
// aggregated only up to the nearer of (a) the hop where the packet would
// reach its destination coordinate in that dimension, and (b) the boundary
// of the current region — so the load of other regions never influences the
// decision (Figure 4). The local credit signal breaks near-ties.
type DBARSelector struct {
	Mesh    *topology.Mesh
	Regions *region.Map
	// Depth is the total downstream buffer capacity behind OutputFree
	// (all VCs of a port), used to convert free credits into an
	// occupancy-style penalty. Zero disables the local term.
	Depth int
}

// Select implements Selector.
func (s DBARSelector) Select(cur, dst int, dirs []topology.Dir, view CongestionView) topology.Dir {
	best := dirs[0]
	bestScore := s.score(cur, dst, best, view)
	for _, d := range dirs[1:] {
		if sc := s.score(cur, dst, d, view); sc < bestScore {
			best, bestScore = d, sc
		}
	}
	return best
}

func (s DBARSelector) score(cur, dst int, d topology.Dir, view CongestionView) int {
	if d == topology.Local {
		return 0
	}
	cc, cd := s.Mesh.Coord(cur), s.Mesh.Coord(dst)
	var offset int
	switch d {
	case topology.East, topology.West:
		offset = abs(cd.X - cc.X)
	default:
		offset = abs(cd.Y - cc.Y)
	}
	clip := offset
	if s.Regions != nil {
		if span := s.Regions.SpanWithin(cur, d); span < clip {
			clip = span
		}
	}
	// Path occupancy (buffered flits at the input ports a d-traveling
	// packet will enter) plus the fresh local credit signal for the first
	// hop; both are in buffer-slot units, so they compose directly.
	score := view.PathOccupancy(d, clip)
	if s.Depth > 0 {
		score += s.Depth - min(view.OutputFree(d), s.Depth)
	}
	return score
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
