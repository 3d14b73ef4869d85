package router

import (
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

// SetPathOccupancy gives r its DBAR congestion view.
func (r *refRouter) SetPathOccupancy(fn func(d topology.Dir, hops int) int) { r.path = fn }
