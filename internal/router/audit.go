package router

import (
	"rair/internal/msg"
	"rair/internal/topology"
)

// The audit surface exposes read-only snapshots of the router's pipeline
// state for the runtime invariant checker (internal/invariant). Every
// method here must be called only between tick barriers, from the
// coordinating goroutine, and must not mutate any state — the checker's
// presence may not perturb the simulation.

// InputVCState is a read-only snapshot of one input VC.
type InputVCState struct {
	VC int
	// Owner is the packet atomically holding the VC (nil when idle);
	// Allocated mirrors the stage machine (any stage past Idle).
	Owner     *msg.Packet
	Allocated bool
	// Buffered is the VC's buffer occupancy in flits.
	Buffered int
	// Native is the VC's bit in the port's native mask: set exactly while
	// Owner is a packet of the router's application (Router.App).
	Native bool
}

// OutputVCState is a read-only snapshot of one output VC.
type OutputVCState struct {
	VC       int
	Owner    *msg.Packet
	Credits  int
	TailSent bool
}

// AuditInputVCs calls fn for every VC of input port d.
func (r *Router) AuditInputVCs(d topology.Dir, fn func(InputVCState)) {
	for i := range r.in[d].vcs {
		vc := &r.in[d].vcs[i]
		fn(InputVCState{
			VC: i, Owner: vc.owner,
			Allocated: vc.stage != stageIdle,
			Buffered:  int(vc.n),
			Native:    r.in[d].native>>uint(i)&1 == 1,
		})
	}
}

// App returns the application the router's node is assigned to (-1: none).
func (r *Router) App() int { return r.app }

// AuditInputFlits calls fn for every buffered flit of input port d's VC vc,
// oldest first, each rebuilt from the VC's run as it arrived.
func (r *Router) AuditInputFlits(d topology.Dir, vc int, fn func(msg.Flit)) {
	v := &r.in[d].vcs[vc]
	for seq := v.front; seq < v.front+int32(v.n); seq++ {
		f := msg.FlitAt(v.owner, int(seq))
		f.VC = vc
		fn(f)
	}
}

// AuditOutputVCs calls fn for every VC of output port d.
func (r *Router) AuditOutputVCs(d topology.Dir, fn func(OutputVCState)) {
	for i := range r.out[d].vcs {
		v := &r.out[d].vcs[i]
		fn(OutputVCState{VC: i, Owner: v.owner, Credits: int(v.credits), TailSent: v.tailSent})
	}
}

// OutputAllocated reports output port d's allocated-VC bookkeeping counter
// (must equal the owned VCs visible via AuditOutputVCs).
func (r *Router) OutputAllocated(d topology.Dir) int { return int(r.out[d].allocated) }

// STRegister returns the flit parked in output port d's switch-traversal
// register, if occupied. An ST flit has already consumed a downstream
// credit but is not yet on the wire, so credit accounting must count it.
func (r *Router) STRegister(d topology.Dir) (msg.Flit, bool) {
	return r.out[d].st, r.stBusy>>uint(d)&1 == 1
}
