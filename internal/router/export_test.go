package router

import (
	"rair/internal/arbiter"
	"rair/internal/msg"
	"rair/internal/topology"
)

// The reference router, NI and wire (reference_test.go), exported to the
// external router_test package, whose mesh lockstep runs them beside
// network.New (a package that imports this one).
type (
	RefRouter = refRouter
	RefNI     = refNI
	RefWire   = refWire
)

var (
	NewRefRouter = newRefRouter
	NewRefNI     = newRefNI
	NewRefWire   = newRefWire
)

// InFlight appends the flits on w to flits, oldest first, and returns them
// with the VC of the credit in flight back (-1: none).
func (w *refWire) InFlight(flits []msg.Flit) ([]msg.Flit, int) {
	for _, f := range w.slots {
		if f.Pkt != nil {
			flits = append(flits, f)
		}
	}
	if len(w.credits) > 0 {
		return flits, w.credits[0]
	}
	return flits, -1
}

// HeldVCs is the mask of ni's VCs still streaming or waiting for credits:
// empty once every packet is out and every credit home.
func (ni *NI) HeldVCs() vcMask { return ni.streamMask | ni.drainMask }

// SetPathOccupancy gives r its DBAR congestion view.
func (r *refRouter) SetPathOccupancy(fn func(d topology.Dir, hops int) int) { r.path = fn }

// Arbiters appends r's arbiters to as: SA_in per input port, SA_out per
// output port, VA_out per output VC.
func (r *Router) Arbiters(as []arbiter.Prioritized) []arbiter.Prioritized {
	n := int(topology.NumDirs) * r.soa.nvc
	return append(append(append(as, r.saInArb[:]...), r.saOutArb[:]...), r.soa.vaArb[int(r.li)*n:][:n]...)
}

// Arbiters appends r's arbiters to as in Router.Arbiters' order. The
// reference keeps plain-int pointers; each becomes the arbiter that a
// GrantSingle to the index before the pointer leaves, so the two compare
// pointer for pointer.
func (r *refRouter) Arbiters(as []arbiter.Prioritized) []arbiter.Prioritized {
	add := func(n int, ptrs []int) {
		for _, p := range ptrs {
			a := arbiter.NewPrioritized(n)
			a.GrantSingle((p + n - 1) % n)
			as = append(as, a)
		}
	}
	add(len(r.kind), r.saInPtr[:])
	add(int(topology.NumDirs), r.saOutPtr[:])
	add(len(r.vaPtr), r.vaPtr)
	return as
}

// NativeHigh reports the DPA mode: whether native traffic holds the high
// priority.
func (r *Router) NativeHigh() bool    { return r.pol.NativeHigh() }
func (r *refRouter) NativeHigh() bool { return r.pol.NativeHigh() }
