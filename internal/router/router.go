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

	// stList[:stN] holds the output ports with an occupied ST register, so
	// ST only visits ports with a flit to send.
	stList [topology.NumDirs]uint8
	stN    uint8

	// saPorts marks input ports with a non-empty saElig set, so SA_in
	// visits only ports that actually have a candidate this cycle.
	saPorts uint8

	// Plan replay (see replay). A cycle whose allocation was forced sets
	// fastArmed and records the granted input ports in planPorts (their
	// streams stay in saOutVC); while armed, switchAllocation re-issues
	// those grants instead of arbitrating. Any event that could change the
	// outcome clears fastArmed and the next cycle arbitrates from the
	// masks, which are exact in both modes. fastTicks counts the replayed
	// cycles.
	fastArmed bool
	planPorts uint8
	fastTicks int64

	// cong holds the DBAR congestion tables; nil unless EnableCongestion
	// ran, so only DBAR routers pay for them.
	cong *congTables

	// Stage population counters let idle routers skip whole pipeline
	// stages; stPending counts occupied ST registers. Their sum is
	// mirrored into soa.Work at every transition so the engine's armed
	// sweep never touches the Router struct. The DPA occupancy registers
	// live in the store (soa.NativeOcc/ForeignOcc).
	rcCount     int
	vaCount     int
	activeCount int
	stPending   int

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
	return r.rcCount, r.vaCount, r.activeCount, r.stPending
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
	if f.Type&msg.Damaged != 0 {
		r.soa.markDamaged(&in.vcs[f.VC], f.Seq)
	}
	if f.Type.IsHead() {
		r.rcCount++
		r.soa.Work[r.li]++
		r.soa.armR(r.li)
		if r.app >= 0 && f.Pkt.App == r.app {
			r.soa.NativeOcc[r.li]++
		} else {
			r.soa.ForeignOcc[r.li]++
		}
	} else if in.activeMask>>uint(f.VC)&1 == 1 && in.saElig>>uint(f.VC)&1 == 0 {
		// The arrival fills an Active VC's empty buffer; with a credit
		// downstream the stream is a fresh SA candidate (0→1 edges also
		// end any armed plan).
		vc := &in.vcs[f.VC]
		out := r.out[vc.outPort]
		if out.ejection || out.creditMask>>uint(vc.outVC)&1 == 1 {
			in.saElig |= 1 << uint(f.VC)
			r.saPorts |= 1 << uint(dir)
			r.fastArmed = false
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
			r.fastArmed = false
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
// eligibility. Precedence: a held ST register means fault (fault-free links
// drain ST every cycle); waiting on the escape VC's credit is escape
// serialization; otherwise a credit stall charged to the co-resident owners
// of the output port's VCs, defaulting to native when none are visible
// (downstream congestion the local router cannot classify).
func (r *Router) chargeSAStall(vc *inputVC, out *OutputPort) {
	switch {
	case out.stValid:
		r.tel.Charge(vc.owner, msg.BlameFault)
	case r.soa.escapeMask>>vc.outVC&1 == 1:
		r.tel.Charge(vc.owner, msg.BlameEscape)
	default:
		occ := (r.allMask &^ out.freeMask) &^ (1 << uint(vc.outVC))
		r.chargeBlocked(vc.owner, out, occ, msg.BlameNative)
	}
}

// switchTraversal moves last cycle's SA winners onto their links (ST + LT),
// visiting only the output ports whose ST register is occupied.
func (r *Router) switchTraversal() {
	if r.stPending == 0 {
		return
	}
	kept := r.stList[:0]
	for _, d := range r.stList[:r.stN] {
		out := r.out[d]
		if out.link != nil && out.link.CanSendFlit() {
			out.link.SendFlit(out.st)
			out.stValid = false
			r.stPending--
			r.soa.Work[r.li]--
			r.flitsSent[d]++
			if r.tel != nil {
				r.tel.LinkFlit()
				if out.st.Type.IsHead() && r.tel.Traced(out.st.Pkt.ID) {
					r.tel.Lifecycle(out.st.Pkt.ID, telemetry.StageST, r.now)
				}
			}
		} else {
			kept = append(kept, d)
			if r.attr && out.st.Type.IsHead() {
				// Fault-free links always accept the ST flit after the
				// link phase, so a head pinned here can only be a faulty
				// link's retransmission hold.
				r.tel.Charge(out.st.Pkt, msg.BlameFault)
			}
		}
	}
	r.stN = uint8(len(kept))
}

// FlitsSent reports the flits this router has pushed onto the output link
// at dir since construction (link-utilization instrumentation).
func (r *Router) FlitsSent(dir topology.Dir) int64 { return r.flitsSent[dir] }

// FastTicks reports how many cycles the router replayed an armed plan
// instead of arbitrating (engine self-profiling).
func (r *Router) FastTicks() int64 { return r.fastTicks }

// saStallScan replays the per-cycle stall telemetry the old full rescan
// produced as a side effect: every active, non-empty VC missing from the
// candidate set failed eligibility this cycle — a credit stall (unless its
// output ST is held, which attribution classifies as a fault hold). The
// counters are order-insensitive sums within a cycle, so emitting them from
// a separate scan is bit-identical to emitting them inline. Only runs with
// telemetry attached; with it off, stalled VCs cost nothing.
func (r *Router) saStallScan() {
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		in := r.in[d]
		for m := in.activeMask & in.occMask &^ in.saElig; m != 0; m &= m - 1 {
			vc := &in.vcs[bits.TrailingZeros64(m)]
			out := r.out[vc.outPort]
			if !out.stValid {
				r.tel.CreditStall()
			}
			if r.attr && vc.headPending {
				r.chargeSAStall(vc, out)
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
// VCs provisioned. While a plan is armed the stage does not arbitrate at
// all: it re-issues the plan's grants through the same transfer (replay).
func (r *Router) switchAllocation() {
	if r.activeCount == 0 {
		return
	}
	if r.tel != nil {
		r.saStallScan()
	}
	if r.fastArmed {
		r.replay()
		return
	}
	if r.saPorts == 0 {
		return
	}
	s := r.soa
	// forced tracks whether this cycle's outcome involved no choice — no
	// arbiter decided anything, no ST register is still held from last
	// cycle, no tail retired a stream — so granting the same streams again
	// is what arbitration would do until an event says otherwise. Only then
	// does the cycle arm a plan.
	forced := r.stPending == 0
	// nomMask marks input ports whose SA_in nomination survived; only
	// those r.saOutVC entries are live (stale pointers from earlier cycles
	// are never read, so the array is not cleared). A forced cycle grants
	// every nomination, so nomMask is also the plan.
	var nomMask uint8
	// SA_in: nominate one VC per input port, visiting only ports with a
	// candidate and only the candidate VCs themselves (the persistent
	// saElig sets). The one eligibility term the sets do not carry — the
	// output ST register, which toggles every busy cycle — is filtered
	// here per candidate; a held register means the last send was pinned
	// by a faulty link, so the branch is almost never taken. Ports with a
	// single surviving candidate skip priority computation and the
	// arbiter scan (the outcome cannot depend on either); the others hand
	// the arbiter the surviving set itself as its request row.
	for pm := r.saPorts; pm != 0; pm &= pm - 1 {
		d := topology.Dir(bits.TrailingZeros8(pm))
		in := r.in[d]
		var elig vcMask
		first, n := 0, 0
		for m := in.saElig; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			vc := &in.vcs[i]
			if r.out[vc.outPort].stValid {
				if r.attr && vc.headPending {
					r.chargeSAStall(vc, r.out[vc.outPort])
				}
				continue
			}
			elig |= 1 << uint(i)
			if n == 0 {
				first = i
			}
			n++
		}
		switch n {
		case 0:
		case 1:
			r.saInArb[d].GrantSingle(first)
			r.saOutVC[d] = &in.vcs[first]
			nomMask |= 1 << uint(d)
			if r.tel != nil {
				r.tel.SAInGrant(r.regions.Native(r.node, in.vcs[first].owner.App))
			}
		default:
			forced = false
			for c := elig; c != 0; c &= c - 1 {
				i := bits.TrailingZeros64(c)
				s.saPrio[i] = r.pol.SAPriority(in.vcs[i].owner, r.now)
			}
			req := [1]uint64{elig}
			w := r.saInArb[d].Grant(req[:], s.saPrio)
			r.saOutVC[d] = &in.vcs[w]
			nomMask |= 1 << uint(d)
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
	}
	// SA_out: arbitrate nominated VCs per output port. Only output ports
	// that actually received a nomination are visited; an uncontended
	// nomination (the common case) bypasses the request-row build and the
	// arbiter scan with the exact same outcome.
	var doneMask uint8
	for nm := nomMask; nm != 0; nm &= nm - 1 {
		id := topology.Dir(bits.TrailingZeros8(nm))
		vc := r.saOutVC[id]
		od := vc.outPort
		if doneMask>>uint(od)&1 == 1 {
			continue
		}
		doneMask |= 1 << uint(od)
		contended := false
		for nm2 := nm & (nm - 1); nm2 != 0; nm2 &= nm2 - 1 {
			if r.saOutVC[bits.TrailingZeros8(nm2)].outPort == od {
				contended = true
				break
			}
		}
		if !contended {
			r.saOutArb[od].GrantSingle(int(id))
			if r.tel != nil {
				r.tel.SAOutGrant(r.regions.Native(r.node, vc.owner.App))
			}
			if r.transfer(id, vc) {
				forced = false
			}
			continue
		}
		forced = false
		var req [1]uint64 // the input ports nominating for od
		for nm2 := nm; nm2 != 0; nm2 &= nm2 - 1 {
			if id2 := bits.TrailingZeros8(nm2); r.saOutVC[id2].outPort == od {
				req[0] |= 1 << uint(id2)
				s.saOutPri[id2] = r.pol.SAPriority(r.saOutVC[id2].owner, r.now)
			}
		}
		w := r.saOutArb[od].Grant(req[:], s.saOutPri[:])
		for m := req[0]; r.tel != nil && m != 0; m &= m - 1 {
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
	if forced && nomMask != 0 {
		r.fastArmed, r.planPorts = true, nomMask
	}
}

// replay is switchAllocation with an armed plan: every planned stream that
// is still an SA candidate and whose ST register drained is granted again —
// the SA_in candidate walk, the priority lookups and both arbiters are what
// it skips. The grants are exactly what arbitration would issue: the
// arbiter pointers are already parked past the sole requestor (GrantSingle
// is idempotent for a repeating single winner), no stream outside the plan
// can be a candidate (every 0→1 saElig edge disarms), and planned flits are
// never heads (heads enter through allocate, which disarms). A planned
// stream that cannot move — out of flits or credits, or its output held by
// a faulty link — or that just sent its tail ends the plan: the remaining
// streams still move this cycle, the next one arbitrates.
func (r *Router) replay() {
	r.fastTicks++
	for pm := r.planPorts; pm != 0; pm &= pm - 1 {
		d := topology.Dir(bits.TrailingZeros8(pm))
		vc := r.saOutVC[d]
		if r.in[d].saElig>>uint(vc.idx)&1 == 0 || r.out[vc.outPort].stValid {
			r.fastArmed = false
			continue
		}
		if r.tel != nil {
			native := r.regions.Native(r.node, vc.owner.App)
			r.tel.SAInGrant(native)
			r.tel.SAOutGrant(native)
		}
		if r.transfer(d, vc) {
			r.fastArmed = false
		}
	}
}

// transfer dequeues one flit from vc — the front of its run, rebuilt from
// the owner — and latches it into the ST register of its allocated output
// port. It reports whether the flit was the packet's tail (a tail retires
// the stream, which ends or forbids a plan).
func (r *Router) transfer(inDir topology.Dir, vc *inputVC) bool {
	out := r.out[vc.outPort]
	ov := &out.vcs[vc.outVC]
	if vc.n == 0 {
		panic("router: SA granted an empty VC")
	}
	f := msg.FlitAt(vc.owner, int(vc.front))
	if k := (damagedFlit{vc, vc.front}); vc.damaged != 0 && r.soa.damaged[k] {
		f.Type |= msg.Damaged
		delete(r.soa.damaged, k)
		vc.damaged--
	}
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
	if out.stValid {
		panic("router: ST register collision")
	}
	out.st = f
	out.stValid = true
	r.stPending++
	r.soa.Work[r.li]++
	r.stList[r.stN] = vc.outPort
	r.stN++
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
		if r.app >= 0 && vc.owner.App == r.app {
			r.soa.NativeOcc[r.li]--
		} else {
			r.soa.ForeignOcc[r.li]--
		}
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
	if tail || vc.n == 0 || (!out.ejection && ov.credits == 0) {
		if in.saElig>>uint(vc.idx)&1 == 1 {
			in.saElig &^= 1 << uint(vc.idx)
			if in.saElig == 0 {
				r.saPorts &^= 1 << uint(inDir)
			}
		}
		return tail
	}
	return false
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
			s.vaSingle[og] = ig
			s.vaReq[og*nw+ig>>6] |= 1 << uint(ig&63)
			s.vaPrio[ig] = r.pol.VAPriority(vc.owner, cls, r.now)
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
		w := r.vaArb[og].Grant(row, s.vaPrio)
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
	// stock is full (asserted above). The newcomer must re-enter
	// arbitration, so any armed plan ends.
	in.saElig |= 1 << uint(vc.idx)
	r.saPorts |= 1 << uint(w/v)
	r.fastArmed = false
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
// and tail departure; the policy applies the new state next cycle, and
// telemetry counts each flip.
func (r *Router) updatePolicy() {
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
	for _, out := range r.out {
		if out.stValid {
			n++
		}
	}
	return n
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
