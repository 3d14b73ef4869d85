package router

import (
	"math/bits"

	"rair/internal/topology"
)

// History is DBAR's congestion view, read on demand (DESIGN.md "DBAR's
// congestion view"): each node's in-port occupancies over the last
// lag = max(W,H)−1 cycles. Node v's ring is ring[v*lag:(v+1)*lag]; its
// newest entry, at slot head[v], is for the end of cycle last[v] (at first,
// a zero entry for cycle 0). Shards publish their own routers in the links
// phase; routers read any node in the compute phase.
type History struct {
	lag       int
	now, prev int64 // the cycle being ticked and the one before
	step      [topology.NumDirs]int
	wired     []uint8 // bit d: the node's router has an output wire in d
	last      []int64
	head      []int32
	ring      [][topology.NumDirs - 1]uint16 // by d−1
}

// NewHistory builds the view over a wired network's routers, by node id,
// and hands it to each of their stores.
func NewHistory(mesh *topology.Mesh, routers []*Router) *History {
	n, lag := mesh.N(), max(mesh.W, mesh.H)-1
	h := &History{lag: lag, wired: make([]uint8, n), last: make([]int64, n), head: make([]int32, n),
		ring: make([][topology.NumDirs - 1]uint16, n*lag),
		step: [topology.NumDirs]int{topology.North: -mesh.W, topology.East: 1, topology.South: mesh.W, topology.West: -1}}
	for v, r := range routers {
		for d := topology.North; d < topology.NumDirs; d++ {
			if r.out[d].wire.s != nil {
				h.wired[v] |= 1 << uint(d)
			}
		}
		r.soa.hist = h
	}
	return h
}

// Advance starts cycle now; the network calls it before the cycle's phases.
func (h *History) Advance(now int64) { h.prev, h.now = h.now, now }

// Publish records the in-port occupancies at the end of the last cycle of
// each of a shard's routers whose bit is set in ticked: the ones ticked in
// it. One not ticked received no flit and sent none, so its newest entry
// still holds; the next publish repeats it for the quiet cycles between, so
// that every cycle a path reads has its own slot. Call it before the links
// phase delivers. With lag 0 (a single node) there is no path to keep.
func (h *History) Publish(routers []*Router, ticked []uint64) {
	for wi, w := range ticked {
		for m := w; m != 0 && h.lag > 0; m &= m - 1 {
			r := routers[wi<<6+bits.TrailingZeros64(m)]
			v := int(r.node)
			ring, s := h.ring[v*h.lag:(v+1)*h.lag], int(h.head[v])
			for gap, prev := min(h.prev-h.last[v], int64(h.lag)), ring[s]; gap > 0; gap-- {
				if s++; s == h.lag {
					s = 0
				}
				ring[s] = prev
			}
			for d := topology.North; d < topology.NumDirs; d++ {
				ring[s][d-1] = uint16(r.InPortOccupancy(d))
			}
			h.head[v], h.last[v] = int32(s), h.prev
		}
	}
}

// PathOccupancy implements routing.CongestionView: the occupancy of the
// router k+1 hops away in d at the end of cycle now−1−k, summed over k below
// min(hops, max(W,H)−1), zero before cycle 0 and from the first router with
// no output wire in d onward, and zero without a history.
func (r *Router) PathOccupancy(d topology.Dir, hops int) int {
	h, v, sum := r.soa.hist, int(r.node), 0
	if h == nil {
		return 0
	}
	for c := h.now - 1; c >= max(h.now-int64(min(hops, h.lag)), 0) && h.wired[v]>>uint(d)&1 == 1; c-- {
		v += h.step[d]
		s := int(h.head[v]) - int(max(h.last[v]-c, 0)) // the slot of cycle c
		if s < 0 {
			s += h.lag
		}
		sum += int(h.ring[v*h.lag+s][d-1])
	}
	return sum
}
