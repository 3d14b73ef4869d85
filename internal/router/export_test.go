package router

import "rair/internal/msg"

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

// InFlight returns the flits on w, oldest first, and the VC of the credit
// in flight back (-1: none).
func (w *refWire) InFlight() (flits []msg.Flit, credit int) {
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
