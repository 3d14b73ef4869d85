package router

import (
	"fmt"
	"math/bits"

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
			VC: vc.idx, Owner: vc.owner,
			Allocated: vc.stage != stageIdle,
			Buffered:  vc.buf.Len(),
		})
	}
}

// AuditInputFlits calls fn for every buffered flit of input port d's VC vc,
// head first.
func (r *Router) AuditInputFlits(d topology.Dir, vc int, fn func(msg.Flit)) {
	buf := &r.in[d].vcs[vc].buf
	for i := 0; i < buf.Len(); i++ {
		fn(buf.At(i))
	}
}

// AuditOutputVCs calls fn for every VC of output port d.
func (r *Router) AuditOutputVCs(d topology.Dir, fn func(OutputVCState)) {
	for i := range r.out[d].vcs {
		v := &r.out[d].vcs[i]
		fn(OutputVCState{VC: v.idx, Owner: v.owner, Credits: v.credits, TailSent: v.tailSent})
	}
}

// OutputAllocated reports output port d's allocated-VC bookkeeping counter
// (must equal the owned VCs visible via AuditOutputVCs).
func (r *Router) OutputAllocated(d topology.Dir) int { return r.out[d].allocated }

// STRegister returns the flit parked in output port d's switch-traversal
// register, if occupied. An ST flit has already consumed a downstream
// credit but is not yet on the wire, so credit accounting must count it.
func (r *Router) STRegister(d topology.Dir) (msg.Flit, bool) {
	return r.out[d].st, r.out[d].stValid
}

// AuditMasks recomputes every incrementally-maintained occupancy bitmask
// and stage counter from the authoritative per-VC state (the slow reference
// scan the masks replaced) and reports each discrepancy through fn. A clean
// datapath reports nothing. The store's first router also audits the shard's
// arbitration scratch, which every Tick must leave all-clear for the next
// router. Read-only; called between tick barriers by the invariant checker.
func (r *Router) AuditMasks(fn func(desc string)) {
	if s := r.soa; r.li == 0 {
		left := 0
		for _, row := range [][]bool{s.vaReq, s.saReq, s.saOutReq[:]} {
			for _, req := range row {
				left += b2i(req)
			}
		}
		for _, n := range s.vaReqN {
			left += b2i(n != 0)
		}
		if left != 0 {
			fn(fmt.Sprintf("shard scratch: %d VA/SA request entries left standing after a tick", left))
		}
	}
	var rcN, vaN, activeN, stN int
	var saPortsRef uint8
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		in := r.in[d]
		var rcM, vaM, activeM, occM vcMask
		flits := 0
		for i := range in.vcs {
			vc := &in.vcs[i]
			bit := vcMask(1) << uint(vc.idx)
			switch vc.stage {
			case stageRC:
				rcM |= bit
			case stageVA:
				vaM |= bit
			case stageActive:
				activeM |= bit
			}
			if !vc.buf.Empty() {
				occM |= bit
			}
			flits += vc.buf.Len()
		}
		rcN += bits.OnesCount64(rcM)
		vaN += bits.OnesCount64(vaM)
		activeN += bits.OnesCount64(activeM)
		reportMask(fn, "in", d, "rcMask", in.rcMask, rcM)
		reportMask(fn, "in", d, "vaMask", in.vaMask, vaM)
		reportMask(fn, "in", d, "activeMask", in.activeMask, activeM)
		reportMask(fn, "in", d, "occMask", in.occMask, occM)
		reportMask(fn, "in", d, "saElig", in.saElig, r.refSAElig(d))
		if in.saElig != 0 {
			saPortsRef |= 1 << uint(d)
		}
		if in.bufFlits != flits {
			fn(fmt.Sprintf("in %s bufFlits=%d, buffers hold %d", d, in.bufFlits, flits))
		}
	}
	if r.saPorts != saPortsRef {
		fn(fmt.Sprintf("saPorts=%#x, per-port saElig sets give %#x", r.saPorts, saPortsRef))
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		out := r.out[d]
		var freeM, creditM, fullM, drainM, streamM vcMask
		credits := 0
		for i := range out.vcs {
			v := &out.vcs[i]
			bit := vcMask(1) << uint(v.idx)
			if v.owner == nil {
				freeM |= bit
			}
			if v.credits > 0 {
				creditM |= bit
			}
			if v.credits == r.cfg.Depth {
				fullM |= bit
			}
			if v.owner != nil && v.tailSent {
				drainM |= bit
			}
			if v.owner != nil && !v.tailSent {
				streamM |= bit
			}
			credits += v.credits
		}
		reportMask(fn, "out", d, "freeMask", out.freeMask, freeM)
		reportMask(fn, "out", d, "creditMask", out.creditMask, creditM)
		reportMask(fn, "out", d, "fullMask", out.fullMask, fullM)
		reportMask(fn, "out", d, "drainMask", out.drainMask, drainM)
		reportMask(fn, "out", d, "streamMask", out.streamMask, streamM)
		// Reverse-map audit: every live stream must point back at the one
		// input VC feeding it (atomic allocation makes the map single-
		// valued), and that input VC must agree on the forward route.
		for m := out.streamMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			v := &out.vcs[i]
			if int(v.inPort) >= int(topology.NumDirs) || int(v.inVC) >= len(r.in[v.inPort].vcs) {
				fn(fmt.Sprintf("out %s VC %d reverse map (%d,%d) out of range", d, i, v.inPort, v.inVC))
				continue
			}
			ivc := &r.in[v.inPort].vcs[v.inVC]
			if ivc.stage != stageActive || ivc.outPort != d || ivc.outVC != i || ivc.owner != v.owner {
				fn(fmt.Sprintf("out %s VC %d reverse map (%d,%d) disagrees with input VC (stage=%d outPort=%s outVC=%d)",
					d, i, v.inPort, v.inVC, ivc.stage, ivc.outPort, ivc.outVC))
			}
		}
		if out.creditSum != credits {
			fn(fmt.Sprintf("out %s creditSum=%d, counters hold %d", d, out.creditSum, credits))
		}
		if out.stValid {
			stN++
		}
	}
	// An armed plan must cover the candidate sets exactly: every planned
	// stream Active with its flit latched, and no candidate beside it.
	if r.fastArmed {
		if r.planPorts == 0 {
			fn("plan armed with no streams")
		}
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			elig := r.in[d].saElig
			if r.planPorts>>uint(d)&1 == 1 {
				vc := r.saOutVC[d]
				if vc.stage != stageActive || !r.out[vc.outPort].stValid {
					fn(fmt.Sprintf("plan in %s: stream not Active with a latched ST flit", d))
				}
				elig &^= 1 << uint(vc.idx)
			}
			if elig != 0 {
				fn(fmt.Sprintf("plan in %s: candidates %#x outside the armed plan", d, elig))
			}
		}
	}
	if r.rcCount != rcN {
		fn(fmt.Sprintf("rcCount=%d, stage scan finds %d", r.rcCount, rcN))
	}
	if r.vaCount != vaN {
		fn(fmt.Sprintf("vaCount=%d, stage scan finds %d", r.vaCount, vaN))
	}
	if r.activeCount != activeN {
		fn(fmt.Sprintf("activeCount=%d, stage scan finds %d", r.activeCount, activeN))
	}
	if r.stPending != stN {
		fn(fmt.Sprintf("stPending=%d, ST registers hold %d", r.stPending, stN))
	}
}

// refSAElig recomputes input port d's SA_in candidate set from the
// authoritative per-VC state — the full per-cycle rescan the incremental
// saElig mask replaced. The predicate is ST-blind, matching the mask's
// contract (SA_in filters the ST register per candidate). It is the shadow
// reference for the invariant checker, the equivalence property test, and
// the old-path micro-benchmark.
func (r *Router) refSAElig(d topology.Dir) vcMask {
	in := r.in[d]
	var elig vcMask
	for m := in.activeMask & in.occMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		vc := &in.vcs[i]
		out := r.out[vc.outPort]
		if !out.ejection && out.creditMask>>uint(vc.outVC)&1 == 0 {
			continue
		}
		elig |= 1 << uint(i)
	}
	return elig
}

func reportMask(fn func(string), side string, d topology.Dir, name string, got, want vcMask) {
	if got != want {
		fn(fmt.Sprintf("%s %s %s=%#x, reference scan gives %#x", side, d, name, got, want))
	}
}

// AuditMasks recomputes the NI's VC shadow masks and activity counters from
// the authoritative stream and credit state, reporting discrepancies through
// fn (the NI-side counterpart of Router.AuditMasks).
func (ni *NI) AuditMasks(fn func(desc string)) {
	var streamM, creditM, fullM vcMask
	streaming := 0
	for i := range ni.streams {
		if ni.streams[i].pkt != nil {
			streamM |= 1 << uint(i)
			streaming++
		}
	}
	for i, c := range ni.credits {
		if c > 0 {
			creditM |= 1 << uint(i)
		}
		if c == ni.cfg.Depth {
			fullM |= 1 << uint(i)
		}
	}
	if ni.streamMask != streamM {
		fn(fmt.Sprintf("NI streamMask=%#x, stream scan gives %#x", ni.streamMask, streamM))
	}
	if ni.creditMask != creditM {
		fn(fmt.Sprintf("NI creditMask=%#x, credit scan gives %#x", ni.creditMask, creditM))
	}
	if ni.fullMask != fullM {
		fn(fmt.Sprintf("NI fullMask=%#x, credit scan gives %#x", ni.fullMask, fullM))
	}
	if ni.streaming != streaming {
		fn(fmt.Sprintf("NI streaming=%d, stream scan finds %d", ni.streaming, streaming))
	}
	if d := bits.OnesCount64(ni.drainMask); ni.drainingN != d {
		fn(fmt.Sprintf("NI drainingN=%d, drainMask holds %d", ni.drainingN, d))
	}
	queued := 0
	for _, q := range ni.queues {
		queued += q.Len()
	}
	if ni.queued != queued {
		fn(fmt.Sprintf("NI queued=%d, queues hold %d", ni.queued, queued))
	}
	if ni.streamMask&ni.drainMask != 0 {
		fn(fmt.Sprintf("NI streamMask %#x overlaps drainMask %#x", ni.streamMask, ni.drainMask))
	}
}
