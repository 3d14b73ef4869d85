package router

import (
	"fmt"
	"math/bits"

	"rair/internal/arbiter"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/routing"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// Router is one node's pipelined VC router. Each router is tagged with the
// application number assigned to its node (Figure 5); packets carry their
// own application number, and the match classifies them as native or
// foreign traffic for the policy.
type Router struct {
	cfg     Config
	node    int
	app     int
	at      topology.Coord // the node's mesh coordinate (route computation)
	regions *region.Map
	alg     routing.Algorithm
	sel     routing.Selector
	pol     policy.Policy

	// soa is the shard-owned dense store this router is a view into; li
	// its local index there. The ports below point into the store's
	// slabs, the occupancy/work registers live in its flat arrays, and
	// the VA/SA request rows are its shard-wide scratch.
	soa *SoA
	li  int

	in  [topology.NumDirs]*InputPort
	out [topology.NumDirs]*OutputPort

	// nvc caches cfg.VCsPerPort() for the hot paths (the accessor
	// multiplies three config fields on every call).
	nvc int

	// The arbiters' round-robin pointers are the only arbitration state
	// that outlives a tick. vaArb (per global output VC index) is carved
	// from the store's slab; saOutVC is the SA_in winner per input port.
	vaArb    []arbiter.Prioritized
	saInArb  [topology.NumDirs]arbiter.Prioritized
	saOutArb [topology.NumDirs]arbiter.Prioritized
	saOutVC  [topology.NumDirs]*inputVC

	// stBusy marks the output ports whose ST register holds a flit, so ST
	// visits only ports with a flit to send and SA filters a candidate by
	// one bit test.
	stBusy uint8

	// saPorts marks input ports with a non-empty saElig set, so SA_in
	// visits only ports that actually have a candidate this cycle.
	saPorts uint8

	// cong holds the DBAR congestion tables; nil unless EnableCongestion
	// ran, so only DBAR routers pay for them.
	cong *congTables

	// Stage population counters let idle routers skip whole pipeline
	// stages. Their sum with the occupied ST registers is mirrored into
	// soa.Work at every transition so the engine's armed sweep never
	// touches the Router struct. The DPA occupancy registers live in the
	// store (soa.NativeOcc/ForeignOcc); occMoved says one of them moved
	// since the last DPA update.
	rcCount     int
	vaCount     int
	activeCount int
	occMoved    bool

	// freeablePorts marks output ports where a credit arrived or a tail
	// was sent since the last output-VC release scan; Tick visits only
	// those ports instead of re-running free() on all of them.
	freeablePorts uint8

	// flitsSent counts flits pushed onto each output link (utilization
	// instrumentation).
	flitsSent [topology.NumDirs]int64

	// tel is the node's telemetry probe; nil when telemetry is disabled,
	// and every hot-path use is guarded on that.
	tel *telemetry.Probe

	// attr caches tel.AttributionOn() at wiring so every blame charge site
	// is a single predictable branch when attribution is off. allMask is
	// the all-VCs mask of one port (blame-site scratch).
	attr    bool
	allMask vcMask

	now int64
}

// NewInStore creates a router for node (application app, or -1 when
// unassigned) as a view over slot li of the shard store soa: its ports and
// VC state are carved from the store's slabs and its work/occupancy
// registers are the store's flat arrays. Links are attached afterwards with
// ConnectIn/ConnectOut.
func NewInStore(cfg Config, node, app int, mesh *topology.Mesh, regions *region.Map,
	alg routing.Algorithm, sel routing.Selector, pol policy.Spec, soa *SoA, li int) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Router{
		cfg: cfg, node: node, app: app, at: mesh.Coord(node), regions: regions,
		alg: alg, sel: sel, pol: policy.New(pol, app), soa: soa, li: li,
	}
	v := cfg.VCsPerPort()
	r.nvc = v
	nOut := int(topology.NumDirs) * v
	r.vaArb = soa.vaArb[li*nOut : (li+1)*nOut : (li+1)*nOut]
	r.allMask = allVCs(v)
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		r.in[d] = &soa.Ins[li*int(topology.NumDirs)+int(d)]
		r.out[d] = &soa.Outs[li*int(topology.NumDirs)+int(d)]
		r.saInArb[d] = arbiter.NewPrioritized(v)
		r.saOutArb[d] = arbiter.NewPrioritized(int(topology.NumDirs))
	}
	return r
}

// congTables are DBAR's congestion rows: cur[d][k] is the (k+1)-cycle-old
// occupancy of the router k+1 hops away in direction d. The network fills
// next from neighbors each cycle and swaps.
type congTables struct {
	cur, next [topology.NumDirs][]int
}

// EnableCongestion allocates the DBAR congestion tables, hops entries per
// cardinal direction. The network calls it only when propagation runs;
// otherwise there are no tables and PathOccupancy reads zero.
func (r *Router) EnableCongestion(hops int) {
	r.cong = &congTables{}
	for d := topology.North; d < topology.NumDirs; d++ {
		r.cong.cur[d] = make([]int, hops)
		r.cong.next[d] = make([]int, hops)
	}
}

// Node returns the router's node id.
func (r *Router) Node() int { return r.node }

// SetTelemetry attaches a telemetry probe (nil detaches).
func (r *Router) SetTelemetry(p *telemetry.Probe) {
	r.tel = p
	r.attr = p.AttributionOn()
}

// OccupancyByKind reports the router's DPA occupancy registers: input VCs
// held by native vs. foreign traffic at the end of the last cycle.
func (r *Router) OccupancyByKind() (native, foreign int) {
	return int(r.soa.NativeOcc[r.li]), int(r.soa.ForeignOcc[r.li])
}

// WorkCounters returns the individual stage-population counters; the
// invariant checker audits their sum against the store's Work mirror.
func (r *Router) WorkCounters() (rc, va, active, st int) {
	return r.rcCount, r.vaCount, r.activeCount, bits.OnesCount8(r.stBusy)
}

// ConnectIn attaches the upstream link feeding the input port at dir.
func (r *Router) ConnectIn(dir topology.Dir, l *Link) { r.in[dir].link = l }

// ConnectOut attaches the downstream link driven by the output port at dir.
func (r *Router) ConnectOut(dir topology.Dir, l *Link) { r.out[dir].link = l }

// Connected reports whether an output link is attached at dir.
func (r *Router) Connected(dir topology.Dir) bool { return r.out[dir].link != nil }

// DeliverFlit accepts a flit arriving on the input port at dir. The network
// calls it when the attached link's delay elapses. A body/tail flit landing
// in an Active VC's empty buffer can complete SA eligibility, so the
// candidate bit is re-derived (heads enter through RC/VA instead, and the
// VA grant re-derives the bit when the stream goes Active).
func (r *Router) DeliverFlit(dir topology.Dir, f msg.Flit) {
	in := r.in[dir]
	in.deliver(f, r.cfg.Depth)
	if f.Type.IsHead() {
		r.rcCount++
		r.soa.Work[r.li]++
		r.soa.armR(r.li)
		if r.app >= 0 && f.Pkt.App == r.app {
			in.native |= 1 << uint(f.VC)
			r.soa.NativeOcc[r.li]++
		} else {
			r.soa.ForeignOcc[r.li]++
		}
		r.occMoved = true
	} else if in.activeMask>>uint(f.VC)&1 == 1 && in.saElig>>uint(f.VC)&1 == 0 {
		// The arrival fills an Active VC's empty buffer; with a credit
		// downstream the stream is a fresh SA candidate.
		vc := &in.vcs[f.VC]
		out := r.out[vc.outPort]
		if out.ejection || out.creditMask>>uint(vc.outVC)&1 == 1 {
			in.saElig |= 1 << uint(f.VC)
			r.saPorts |= 1 << uint(dir)
		}
	}
}

// DeliverCredit accepts a credit returned on the output port at dir. The
// port joins the release scan only if something is actually draining there:
// a credit arriving while drainMask is clear cannot complete an atomic-reuse
// condition (the tail-send that starts a drain marks the port itself). A
// credit refilling a dry VC with a live input stream can complete that
// stream's SA eligibility; the reverse map locates the input VC without a
// scan. Credits landing on top of a non-zero stock cannot change
// eligibility and skip the re-derivation.
func (r *Router) DeliverCredit(dir topology.Dir, vc int) {
	p := r.out[dir]
	wasDry := p.vcs[vc].credits == 0
	p.deliverCredit(vc, r.cfg.Depth)
	if p.drainMask != 0 {
		r.freeablePorts |= 1 << uint(dir)
	}
	if wasDry && p.streamMask>>uint(vc)&1 == 1 {
		// The refill completes eligibility for the stream feeding this
		// output VC (located through the reverse map; streamMask implies
		// the input VC is Active) when it has a flit waiting.
		ov := &p.vcs[vc]
		in := r.in[ov.inPort]
		if in.occMask>>uint(ov.inVC)&1 == 1 && in.saElig>>uint(ov.inVC)&1 == 0 {
			in.saElig |= 1 << uint(ov.inVC)
			r.saPorts |= 1 << uint(ov.inPort)
		}
	}
}

// InPortOccupancy reports the buffered flits at the input port facing
// direction d: the congestion a packet traveling in direction d meets when
// it enters this router. This per-direction value is what DBAR propagates.
func (r *Router) InPortOccupancy(d topology.Dir) int {
	return r.in[d.Opposite()].bufFlits
}

// CongRow returns the current congestion table for direction d (read-only;
// EnableCongestion must have run).
func (r *Router) CongRow(d topology.Dir) []int { return r.cong.cur[d] }

// CongNextRow returns the next-cycle congestion table for direction d; the
// network fills it before calling SwapCong.
func (r *Router) CongNextRow(d topology.Dir) []int { return r.cong.next[d] }

// SwapCong publishes the next-cycle congestion tables.
func (r *Router) SwapCong() { r.cong.cur, r.cong.next = r.cong.next, r.cong.cur }

// OutputFree implements routing.CongestionView.
func (r *Router) OutputFree(d topology.Dir) int { return r.out[d].freeCredits() }

// PathOccupancy implements routing.CongestionView.
func (r *Router) PathOccupancy(d topology.Dir, hops int) int {
	if r.cong == nil {
		return 0
	}
	row := r.cong.cur[d]
	if hops > len(row) {
		hops = len(row)
	}
	sum := 0
	for k := 0; k < hops; k++ {
		sum += row[k]
	}
	return sum
}

// Tick advances the router one cycle. Stages run in reverse pipeline order
// (ST, SA, VA, RC) over latched state, so each flit advances at most one
// stage per cycle.
func (r *Router) Tick(now int64) {
	r.now = now
	for m := r.freeablePorts; m != 0; m &= m - 1 {
		r.out[bits.TrailingZeros8(m)].free()
	}
	r.freeablePorts = 0
	r.switchTraversal()
	r.switchAllocation()
	r.vcAllocation()
	r.routeCompute()
	r.updatePolicy()
}

// chargeLoss attributes one stalled cycle of an arbitration loser to the
// winner's region class: same application (RAIR: same region) is native
// contention, anything else is foreign interference.
func (r *Router) chargeLoss(loser, winner *msg.Packet) {
	if winner.App == loser.App {
		r.tel.Charge(loser, msg.BlameNative)
	} else {
		r.tel.Charge(loser, msg.BlameForeign)
	}
}

// chargeBlocked attributes one stalled cycle of pkt to the owners of the
// occupied output VCs blocking it: foreign wins over native as soon as any
// blocker belongs to another application ("any-foreign wins"); def covers
// the no-visible-blocker case (site-specific, see callers).
func (r *Router) chargeBlocked(pkt *msg.Packet, out *OutputPort, occupied vcMask, def int) {
	cause := -1
	for m := occupied; m != 0; m &= m - 1 {
		o := out.vcs[bits.TrailingZeros64(m)].owner
		if o == nil || o == pkt {
			continue
		}
		if o.App != pkt.App {
			cause = msg.BlameForeign
			break
		}
		cause = msg.BlameNative
	}
	if cause < 0 {
		cause = def
	}
	r.tel.Charge(pkt, cause)
}

// chargeSAStall attributes one cycle of a head-pending VC that failed SA_in
// eligibility. Precedence: waiting on the escape VC's credit is escape
// serialization; otherwise a credit stall charged to the co-resident owners
// of the output port's VCs, defaulting to native when none are visible
// (downstream congestion the local router cannot classify).
func (r *Router) chargeSAStall(vc *inputVC, out *OutputPort) {
	if r.soa.escapeMask>>vc.outVC&1 == 1 {
		r.tel.Charge(vc.owner, msg.BlameEscape)
		return
	}
	occ := (r.allMask &^ out.freeMask) &^ (1 << uint(vc.outVC))
	r.chargeBlocked(vc.owner, out, occ, msg.BlameNative)
}

// switchTraversal moves last cycle's SA winners onto their links (ST + LT),
// visiting only the output ports whose ST register is occupied. A link
// shifted in the link phase always has a free entry register, so every
// register drains here (a second push onto one wire in a cycle panics in
// sim.DelayLine).
func (r *Router) switchTraversal() {
	for m := r.stBusy; m != 0; m &= m - 1 {
		d := bits.TrailingZeros8(m)
		out := r.out[d]
		out.link.SendFlit(out.st)
		r.soa.Work[r.li]--
		r.flitsSent[d]++
		if r.tel != nil {
			r.tel.LinkFlit()
			if out.st.Type.IsHead() && r.tel.Traced(out.st.Pkt.ID) {
				r.tel.Lifecycle(out.st.Pkt.ID, telemetry.StageST, r.now)
			}
		}
	}
	r.stBusy = 0
}

// FlitsSent reports the flits this router has pushed onto the output link
// at dir since construction (link-utilization instrumentation).
func (r *Router) FlitsSent(dir topology.Dir) int64 { return r.flitsSent[dir] }

// saStallScan replays the per-cycle stall telemetry the old full rescan
// produced as a side effect: every active, non-empty VC missing from the
// candidate set failed eligibility this cycle — a credit stall. The
// counters are order-insensitive sums within a cycle, so emitting them from
// a separate scan is bit-identical to emitting them inline. Only runs with
// telemetry attached; with it off, stalled VCs cost nothing.
func (r *Router) saStallScan() {
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		in := r.in[d]
		for m := in.activeMask & in.occMask &^ in.saElig; m != 0; m &= m - 1 {
			vc := &in.vcs[bits.TrailingZeros64(m)]
			r.tel.CreditStall()
			if r.attr && vc.headPending {
				r.chargeSAStall(vc, r.out[vc.outPort])
			}
		}
	}
}

// switchAllocation performs SA_in (one candidate VC per input port) and
// SA_out (one winner per output port), both under the policy's SA priority
// (MSP, Section IV.B). The winning flit is dequeued, its buffer credit is
// returned upstream, and it is latched into the ST register.
//
// The candidate sets are not rescanned here: SA_in walks the persistent
// per-port saElig masks (maintained at the eligibility event sites), so a
// cycle's cost is proportional to the VCs that can actually move, not the
// VCs provisioned.
func (r *Router) switchAllocation() {
	if r.activeCount == 0 {
		return
	}
	if r.tel != nil {
		r.saStallScan()
	}
	if r.saPorts == 0 {
		return
	}
	// SA_in files each surviving nomination in r.saOutVC (entries of other
	// ports are stale and never read) and in outReq, the input ports
	// nominating per output port; outMask marks the output ports with a
	// nomination and nomNative the nominations carrying native traffic.
	var outReq [topology.NumDirs]uint8
	var outMask, nomNative uint8
	// SA_in: nominate one VC per input port, visiting only ports with a
	// candidate and only the candidate VCs themselves (the persistent
	// saElig sets). ST has just emptied every output register, so the sets
	// are the whole eligibility. A port with one candidate skips the
	// arbiter scan (the outcome cannot depend on it); the others grant
	// over the set.
	for pm := r.saPorts; pm != 0; pm &= pm - 1 {
		d := topology.Dir(bits.TrailingZeros8(pm))
		in := r.in[d]
		elig := in.saElig
		if elig == 0 {
			continue
		}
		w := bits.TrailingZeros64(elig)
		if elig&(elig-1) == 0 {
			r.saInArb[d].GrantSingle(w)
		} else {
			// Under the unordered rules every priority is the favored
			// bit, so the grant is a flat one over the favored subset;
			// Rank and Age fill a priority row.
			row, prio := [1]uint64{r.pol.SAFavored(elig, in.native)}, []int(nil)
			if r.pol.Ordered() {
				prio = r.soa.saPrio
				for c := elig; c != 0; c &= c - 1 {
					i := bits.TrailingZeros64(c)
					prio[i] = r.pol.SAPriority(in.vcs[i].owner, r.now)
				}
			}
			w = r.saInArb[d].Grant(row[:], prio)
		}
		r.saOutVC[d] = &in.vcs[w]
		od := in.vcs[w].outPort
		outReq[od] |= 1 << uint(d)
		outMask |= 1 << od
		nomNative |= uint8(in.native>>uint(w)&1) << uint(d)
		for c := elig; r.tel != nil && c != 0; c &= c - 1 {
			i := bits.TrailingZeros64(c)
			vc := &in.vcs[i]
			native := r.regions.Native(r.node, vc.owner.App)
			if i == w {
				r.tel.SAInGrant(native)
				continue
			}
			r.tel.SAInDeny(native)
			if r.attr && vc.headPending {
				r.chargeLoss(vc.owner, in.vcs[w].owner)
			}
		}
	}
	// SA_out: arbitrate nominated VCs per output port, visiting only the
	// output ports that received a nomination; a lone nomination (the
	// common case) skips the arbiter scan with the exact same outcome.
	for om := outMask; om != 0; om &= om - 1 {
		od := bits.TrailingZeros8(om)
		req := uint64(outReq[od])
		w := bits.TrailingZeros64(req)
		if req&(req-1) == 0 {
			r.saOutArb[od].GrantSingle(w)
		} else {
			row, prio := [1]uint64{r.pol.SAFavored(req, uint64(nomNative))}, []int(nil)
			if r.pol.Ordered() {
				prio = r.soa.saOutPri[:]
				for m := req; m != 0; m &= m - 1 {
					id2 := bits.TrailingZeros64(m)
					prio[id2] = r.pol.SAPriority(r.saOutVC[id2].owner, r.now)
				}
			}
			w = r.saOutArb[od].Grant(row[:], prio)
		}
		for m := req; r.tel != nil && m != 0; m &= m - 1 {
			id2 := bits.TrailingZeros64(m)
			vc2 := r.saOutVC[id2]
			native := r.regions.Native(r.node, vc2.owner.App)
			if id2 == w {
				r.tel.SAOutGrant(native)
				continue
			}
			r.tel.SAOutDeny(native)
			if r.attr && vc2.headPending {
				r.chargeLoss(vc2.owner, r.saOutVC[w].owner)
			}
		}
		r.transfer(topology.Dir(w), r.saOutVC[w])
	}
}

// transfer dequeues one flit from vc — the front of its run, rebuilt from
// the owner — and latches it into the ST register of its allocated output
// port.
func (r *Router) transfer(inDir topology.Dir, vc *inputVC) {
	out := r.out[vc.outPort]
	ov := &out.vcs[vc.outVC]
	if vc.n == 0 {
		panic("router: SA granted an empty VC")
	}
	f := msg.FlitAt(vc.owner, int(vc.front))
	vc.front++
	vc.n--
	in := r.in[inDir]
	in.bufFlits--
	if vc.n == 0 {
		in.occMask &^= 1 << uint(vc.idx)
	}
	f.VC = int(vc.outVC)
	if f.Type.IsHead() {
		f.Pkt.Hops++
		vc.headPending = false
		if r.tel != nil && r.tel.Traced(f.Pkt.ID) {
			r.tel.Lifecycle(f.Pkt.ID, telemetry.StageSA, r.now)
		}
	}
	if r.stBusy>>vc.outPort&1 == 1 {
		panic("router: ST register collision")
	}
	out.st = f
	r.stBusy |= 1 << vc.outPort
	r.soa.Work[r.li]++
	if !out.ejection {
		if ov.credits <= 0 {
			panic("router: SA granted without credit")
		}
		ov.credits--
		out.creditSum--
		out.fullMask &^= 1 << uint(vc.outVC)
		if ov.credits == 0 {
			out.creditMask &^= 1 << uint(vc.outVC)
		}
	}
	if in.link != nil {
		if !in.link.CanSendCredit() {
			panic("router: credit wire busy (more than one dequeue per port per cycle)")
		}
		in.link.SendCredit(int(vc.idx))
	}
	tail := f.Type.IsTail()
	if tail {
		if in.native>>uint(vc.idx)&1 == 1 {
			in.native &^= 1 << uint(vc.idx)
			r.soa.NativeOcc[r.li]--
		} else {
			r.soa.ForeignOcc[r.li]--
		}
		r.occMoved = true
		vc.stage = stageIdle
		vc.owner = nil
		ov.tailSent = true
		out.drainMask |= 1 << uint(vc.outVC)
		out.streamMask &^= 1 << uint(vc.outVC)
		r.freeablePorts |= 1 << uint(vc.outPort)
		r.activeCount--
		r.soa.Work[r.li]--
		in.activeMask &^= 1 << uint(vc.idx)
	}
	// The pop can only shrink the candidate set: drop the bit when the
	// buffer emptied, the last credit drained, or a tail retired the
	// stream. All three terms are already in registers here, so the
	// update is branch-plus-mask instead of a re-derivation.
	if (tail || vc.n == 0 || (!out.ejection && ov.credits == 0)) && in.saElig>>uint(vc.idx)&1 == 1 {
		in.saElig &^= 1 << uint(vc.idx)
		if in.saElig == 0 {
			r.saPorts &^= 1 << uint(inDir)
		}
	}
}

// vcAllocation performs VA for every input VC in the VA stage: the
// contention-free VA_in step picks one output VC request per input VC, and
// the VA_out step arbitrates per output VC under the policy's VC
// regionalization priorities.
func (r *Router) vcAllocation() {
	if r.vaCount == 0 {
		return
	}
	v := r.nvc
	nw := (int(topology.NumDirs)*v + 63) >> 6 // words per VA request row
	s := r.soa
	prio := []int(nil) // only Rank and Age fill and read a priority row
	if r.pol.Ordered() {
		prio = s.vaPrio
	}
	touched := s.vaTouched[:0]
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		in := r.in[d]
		for m := in.vaMask; m != 0; m &= m - 1 {
			vc := &in.vcs[bits.TrailingZeros64(m)]
			og, cls := r.vaInput(vc)
			if og < 0 {
				continue
			}
			ig := int(d)*v + int(vc.idx)
			if s.vaReqN[og] == 0 {
				touched = append(touched, og)
			}
			s.vaReqN[og]++
			s.vaSingle[og], s.vaCls[og] = ig, cls
			s.vaReq[og*nw+ig>>6] |= 1 << uint(ig&63)
			// The requestor's native bit, written whole: a row reads only
			// the bits of its own requestors, all filed this tick.
			s.vaNative[ig>>6] = s.vaNative[ig>>6]&^(1<<uint(ig&63)) | (in.native>>vc.idx&1)<<uint(ig&63)
			if prio != nil {
				prio[ig] = r.pol.VAPriority(vc.owner, cls, r.now)
			}
		}
	}
	for _, og := range touched {
		row := s.vaReq[og*nw : (og+1)*nw]
		if s.vaReqN[og] == 1 {
			// Uncontended output VC: grant directly, clearing only the
			// one filed request instead of scanning the row.
			w := r.vaArb[og].GrantSingle(s.vaSingle[og])
			row[w>>6] &^= 1 << uint(w&63)
			s.vaReqN[og] = 0
			r.allocate(og, w)
			continue
		}
		// Under the unordered rules the grant is a flat one over the
		// row's favored subset; Rank and Age have no favored class.
		w := r.vaArb[og].Grant(r.pol.VAFavored(s.vaCls[og], row, s.vaNative[:nw], s.vaFavored[:nw]), prio)
		// Losers of a VA_out arbitration: serialized on the escape VC when
		// that is what they competed for, otherwise blocked by the winner's
		// region class.
		for k := 0; r.tel != nil && k < nw; k++ {
			for m := row[k]; m != 0; m &= m - 1 {
				i := k<<6 | bits.TrailingZeros64(m)
				if i == w {
					continue
				}
				loser := r.in[topology.Dir(i/v)].vcs[i%v].owner
				r.tel.VADeny(r.regions.Native(r.node, loser.App))
				switch {
				case !r.attr:
				case r.soa.escapeMask>>uint(og%v)&1 == 1:
					r.tel.Charge(loser, msg.BlameEscape)
				default:
					r.chargeLoss(loser, r.in[topology.Dir(w/v)].vcs[w%v].owner)
				}
			}
		}
		r.allocate(og, w)
		clear(row)
		s.vaReqN[og] = 0
	}
}

// vaInput is the VA_in step for one input VC: route computation candidates,
// the selection function (or the forced escape direction on every other
// attempt, which guarantees the Duato escape path is requested under
// sustained congestion), then the choice of one free output VC. It returns
// the global output VC index requested (or -1) and its class.
func (r *Router) vaInput(vc *inputVC) (int, policy.VCClass) {
	pkt, s := vc.owner, r.soa
	rt := r.alg.Route(r.at, pkt.Dst)
	var port topology.Dir
	switch {
	case rt.N == 1:
		port = rt.First
	case vc.vaOdd:
		port = rt.Esc
	default:
		s.dirBuf = [2]topology.Dir{rt.First, rt.Second}
		port = r.sel.Select(r.node, pkt.Dst, s.dirBuf[:rt.N], r)
	}
	vc.vaOdd = !vc.vaOdd
	out := r.out[port]
	if out.link == nil && !out.ejection {
		panic(fmt.Sprintf("router %d: route to unconnected port %v", r.node, port))
	}
	// Free-VC search: the candidate window is the intersection of the
	// port's free-VC mask with the packet class's VC range; escape VCs
	// are masked out unless the request targets the escape direction.
	// Within the window, traffic prefers the VC class matching its nature
	// (global traffic → global VCs), falls back to the other adaptive
	// class, and takes the escape VC last; any traffic may use any class
	// (VC regionalization partitions by priority, not by admission —
	// Section IV.A), so no VC sits idle while traffic waits. Each
	// preference tier is one mask intersection, lowest index first (the
	// same VC the old per-candidate minimum scan chose).
	free := out.freeMask & s.classWindow[pkt.Class]
	if port != rt.Esc {
		free &^= s.escapeMask
	}
	if free == 0 {
		if r.attr {
			// No output VC to request: blocked by whoever owns the VCs of
			// this packet's class window. With no visible owner the only
			// candidate was the masked-out escape VC — escape
			// serialization by definition.
			occ := s.classWindow[pkt.Class] &^ out.freeMask
			r.chargeBlocked(pkt, out, occ, msg.BlameEscape)
		}
		return -1, 0
	}
	first, second := s.regionalMask, s.globalMask
	firstCls, secondCls := policy.VCRegional, policy.VCGlobal
	if pkt.Global {
		first, second = second, first
		firstCls, secondCls = secondCls, firstCls
	}
	var chosen int
	var chosenCls policy.VCClass
	switch {
	case free&first != 0:
		chosen, chosenCls = bits.TrailingZeros64(free&first), firstCls
	case free&second != 0:
		chosen, chosenCls = bits.TrailingZeros64(free&second), secondCls
	default:
		chosen, chosenCls = bits.TrailingZeros64(free), policy.VCEscape
	}
	return int(port)*r.nvc + chosen, chosenCls
}

// allocate commits a VA_out grant: output VC og to the input VC with global
// index w.
func (r *Router) allocate(og, w int) {
	v := r.nvc
	port := topology.Dir(og / v)
	ovIdx := og % v
	in := r.in[topology.Dir(w/v)]
	vc := &in.vcs[w%v]
	out := r.out[port]
	ov := &out.vcs[ovIdx]
	if ov.owner != nil {
		panic("router: VA granted an occupied output VC")
	}
	if int(ov.credits) != r.cfg.Depth {
		panic("router: output VC allocated before credits drained")
	}
	if r.tel != nil {
		r.tel.VAGrant(r.regions.Native(r.node, vc.owner.App))
		if r.tel.Traced(vc.owner.ID) {
			r.tel.Lifecycle(vc.owner.ID, telemetry.StageVA, r.now)
		}
	}
	ov.owner = vc.owner
	ov.tailSent = false
	ov.inPort = int8(w / v)
	ov.inVC = int8(w % v)
	out.allocated++
	out.freeMask &^= 1 << uint(ovIdx)
	out.streamMask |= 1 << uint(ovIdx)
	vc.outPort = uint8(port)
	vc.outVC = uint8(ovIdx)
	vc.stage = stageActive
	r.vaCount--
	r.activeCount++
	in.vaMask &^= 1 << uint(vc.idx)
	in.activeMask |= 1 << uint(vc.idx)
	// The new stream is always an immediate SA candidate: its head is
	// still buffered (pops require Active) and the output VC's credit
	// stock is full (asserted above).
	in.saElig |= 1 << uint(vc.idx)
	r.saPorts |= 1 << uint(w/v)
}

// routeCompute advances heads that arrived last cycle into the VA stage.
func (r *Router) routeCompute() {
	if r.rcCount == 0 {
		return
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		in := r.in[d]
		m := in.rcMask
		if m == 0 {
			continue
		}
		in.rcMask = 0
		in.vaMask |= m
		for ; m != 0; m &= m - 1 {
			vc := &in.vcs[bits.TrailingZeros64(m)]
			vc.stage = stageVA
			r.vaCount++
			r.rcCount--
			if r.tel != nil && r.tel.Traced(vc.owner.ID) {
				r.tel.Lifecycle(vc.owner.ID, telemetry.StageRC, r.now)
			}
		}
	}
}

// updatePolicy feeds the DPA registers: occupied VCs held by native vs
// foreign traffic across the whole router (Section IV.C counts all VCs, not
// just one port). The counts are maintained incrementally at head arrival
// and tail departure, and only a tick in which one moved feeds them; the
// policy applies the new state next cycle, and telemetry counts each flip.
func (r *Router) updatePolicy() {
	if !r.occMoved {
		return // Update never flips twice on the same counts
	}
	r.occMoved = false
	nat, frn := r.soa.NativeOcc[r.li], r.soa.ForeignOcc[r.li]
	if r.pol.Update(int(nat), int(frn)) && r.tel != nil {
		r.tel.DPATransition(r.pol.NativeHigh())
	}
}

// BufferedFlits reports the total flits buffered in all input VCs (used by
// drain detection and tests).
func (r *Router) BufferedFlits() int {
	n := 0
	for _, in := range r.in {
		n += in.bufFlits
	}
	return n + bits.OnesCount8(r.stBusy)
}

// OldestOwner returns the earliest-created packet currently holding any
// input VC, or nil. The network's starvation watchdog uses it.
func (r *Router) OldestOwner() *msg.Packet {
	var oldest *msg.Packet
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		for i := range r.in[d].vcs {
			vc := &r.in[d].vcs[i]
			if vc.owner != nil && (oldest == nil || vc.owner.CreatedAt < oldest.CreatedAt) {
				oldest = vc.owner
			}
		}
	}
	return oldest
}
