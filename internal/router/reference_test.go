package router

import (
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/routing"
	"rair/internal/topology"
)

// refRouter is the router's executable specification: the pipeline of the
// paper written as per-VC state and linear scans, and nothing else. Each
// cycle runs, over latched state and in reverse pipeline order, the release
// of drained output VCs, ST, SA_in and SA_out under the SA priority (MSP),
// VA_in and VA_out under the VC-regionalization priority, RC, and finally
// the DPA registers OVC_n/OVC_f, whose new priority takes effect next
// cycle. It keeps no occupancy masks, stage counters, SoA slabs, replay
// plan or wake bits; it works every priority out from the Spec's rules,
// reading of the policy only its DPA state, never its base tables; and
// every arbitration is its own grant: a rotation scan over a full request
// vector with a plain-int round-robin pointer, sharing no code with
// internal/arbiter. The mesh lockstep (mesh_lockstep_test.go) runs a mesh
// of them beside network.New and compares everything a neighbour can
// observe, every arbiter pointer and the DPA registers, every cycle.
type refRouter struct {
	cfg       Config
	node, app int
	at        topology.Coord
	alg       routing.Algorithm
	sel       routing.Selector
	path      func(d topology.Dir, hops int) int // DBAR's congestion view
	spec      policy.Spec
	pol       policy.Policy    // read for its DPA state only
	kind      []policy.VCClass // Config.KindOf per VC index
	now       int64

	in  [topology.NumDirs]refInPort
	out [topology.NumDirs]refOutPort

	// The arbiters' round-robin pointers: one VA_out arbiter per output VC
	// (over every input VC), one SA_in per input port (over its VCs), one
	// SA_out per output port (over the input ports).
	vaPtr             []int
	saInPtr, saOutPtr [topology.NumDirs]int
}

// grant is the reference's arbiter: the requestor of highest priority,
// ties to the first in rotation order from *ptr, which then moves past it
// (-1 and no move when nobody requests).
func grant(ptr *int, req []bool, prio []int) int {
	w := -1
	for k := range req {
		i := (*ptr + k) % len(req)
		if req[i] && (w < 0 || prio[i] > prio[w]) {
			w = i
		}
	}
	if w >= 0 {
		*ptr = (w + 1) % len(req)
	}
	return w
}

// refInVC is one input VC: its flit buffer, the packet holding it (atomic
// allocation), its pipeline stage and, once Active, its output VC.
type refInVC struct {
	buf      []msg.Flit
	owner    *msg.Packet
	stage    vcStage
	outPort  topology.Dir
	outVC    int
	attempts int // VA tries; every odd one requests the escape direction
}

type refInPort struct {
	vcs  []refInVC
	link *refWire // its credit wire carries credits back upstream
}

// refOutVC is one output VC: the downstream buffer's credits and the packet
// holding it until its tail has left and every credit has come back.
type refOutVC struct {
	owner    *msg.Packet
	credits  int
	tailSent bool
}

type refOutPort struct {
	vcs     []refOutVC
	link    *refWire
	st      msg.Flit // the ST register: last cycle's SA winner
	stValid bool
}

func newRefRouter(cfg Config, node, app int, mesh *topology.Mesh,
	alg routing.Algorithm, sel routing.Selector, spec policy.Spec) *refRouter {
	v := cfg.VCsPerPort()
	r := &refRouter{cfg: cfg, node: node, app: app, at: mesh.Coord(node), alg: alg, sel: sel,
		spec: spec, pol: policy.New(spec, app), kind: make([]policy.VCClass, v)}
	for i := range r.kind {
		r.kind[i] = cfg.KindOf(i)
	}
	for d := range r.in {
		r.in[d].vcs = make([]refInVC, v)
		r.out[d].vcs = make([]refOutVC, v)
		for i := range r.out[d].vcs {
			r.out[d].vcs[i].credits = cfg.Depth
		}
	}
	r.vaPtr = make([]int, int(topology.NumDirs)*v)
	return r
}

func (r *refRouter) ConnectIn(d topology.Dir, w *refWire)  { r.in[d].link = w }
func (r *refRouter) ConnectOut(d topology.Dir, w *refWire) { r.out[d].link = w }

// refWire is the reference's link, sharing nothing with the wire slab: a
// slice FIFO of latency flit slots whose last slot is the entry register
// (a zero flit is an empty slot), moved one slot on per cycle, and a FIFO
// of the credits sent back, each delivered at the next shift.
type refWire struct {
	slots   []msg.Flit
	entered bool // a flit entered since the last shift
	credits []int
}

func newRefWire(latency int) *refWire { return &refWire{slots: make([]msg.Flit, latency)} }

// ShiftFlits moves every slot on one and returns the flit leaving slot 0.
func (w *refWire) ShiftFlits() (msg.Flit, bool) {
	f := w.slots[0]
	copy(w.slots, w.slots[1:])
	w.slots[len(w.slots)-1] = msg.Flit{}
	w.entered = false
	return f, f.Pkt != nil
}

func (w *refWire) CanSendFlit() bool { return !w.entered }

func (w *refWire) SendFlit(f msg.Flit) {
	if w.entered {
		panic("refWire: two flits in one cycle")
	}
	w.slots[len(w.slots)-1], w.entered = f, true
}

// ShiftCredits delivers the credit sent last cycle, if any.
func (w *refWire) ShiftCredits() (int, bool) {
	if len(w.credits) == 0 {
		return -1, false
	}
	vc := w.credits[0]
	w.credits = w.credits[1:]
	return vc, true
}

func (w *refWire) SendCredit(vc int) {
	if len(w.credits) > 0 {
		panic("refWire: two credits in one cycle")
	}
	w.credits = append(w.credits, vc)
}

// DeliverFlit buffers a flit arriving on input port d; a head claims its VC
// and enters RC.
func (r *refRouter) DeliverFlit(d topology.Dir, f msg.Flit) {
	vc := &r.in[d].vcs[f.VC]
	if f.Type.IsHead() {
		vc.owner, vc.stage, vc.attempts = f.Pkt, stageRC, 0
	}
	vc.buf = append(vc.buf, f)
}

// DeliverCredit returns one downstream buffer slot of output VC vc at d.
func (r *refRouter) DeliverCredit(d topology.Dir, vc int) { r.out[d].vcs[vc].credits++ }

// native reports whether p is native traffic here: its application is the
// router's.
func (r *refRouter) native(p *msg.Packet) bool { return r.app >= 0 && p.App == r.app }

// favored reports whether p is the traffic the native/foreign rule favors:
// native under NativeH and while DPA holds native-high, foreign otherwise.
func (r *refRouter) favored(p *msg.Packet) bool {
	nativeHigh := r.spec.Priority == policy.NativeH || r.spec.Priority == policy.DPA && r.pol.NativeHigh()
	return r.native(p) == nativeHigh
}

// order is Rank's priority: the batch age weighted above every rank plus
// the rank term (an unranked application gets the worst rank, n). The
// lockstep's runs stay far below the policy's cap on the batch age.
func (r *refRouter) order(p *msg.Packet) int {
	b, n := r.spec.Batch, len(r.spec.Ranks)
	rank := n
	if p.App >= 0 && p.App < n {
		rank = r.spec.Ranks[p.App]
	}
	return int(r.now/b-p.CreatedAt/b)*(n+2) + n - rank
}

// saPriority is p's priority at SA_in and SA_out: flat under RR, the
// order under Rank, and otherwise (MSP) 1 for the favored traffic
// unless the priority stops at VA.
func (r *refRouter) saPriority(p *msg.Packet) int {
	switch r.spec.Priority {
	case policy.RR:
		return 0
	case policy.Rank:
		return r.order(p)
	}
	if r.spec.MSP == policy.VAOnly || !r.favored(p) {
		return 0
	}
	return 1
}

// vaPriority is p's priority at the VA_out arbitration of an output VC of
// class cls. Under VC regionalization foreign traffic always wins a global
// VC, the favored traffic wins a regional VC, and escape VCs stay fair.
func (r *refRouter) vaPriority(p *msg.Packet, cls policy.VCClass) int {
	switch r.spec.Priority {
	case policy.RR:
		return 0
	case policy.Rank:
		return r.order(p)
	}
	if cls == policy.VCGlobal && !r.native(p) || cls == policy.VCRegional && r.favored(p) {
		return 1
	}
	return 0
}

// OccupancyByKind counts the input VCs held by native and foreign packets:
// the DPA registers OVC_n and OVC_f.
func (r *refRouter) OccupancyByKind() (native, foreign int) {
	for d := range r.in {
		for i := range r.in[d].vcs {
			switch owner := r.in[d].vcs[i].owner; {
			case owner == nil:
			case r.native(owner):
				native++
			default:
				foreign++
			}
		}
	}
	return native, foreign
}

// OutputFree implements routing.CongestionView: the credits left at port d.
func (r *refRouter) OutputFree(d topology.Dir) int {
	n := 0
	for _, ov := range r.out[d].vcs {
		n += ov.credits
	}
	return n
}

// PathOccupancy implements routing.CongestionView. The reference keeps no
// DBAR history: the mesh lockstep answers from its record of every router's
// InPortOccupancy.
func (r *refRouter) PathOccupancy(d topology.Dir, hops int) int { return r.path(d, hops) }

// InPortOccupancy is what DBAR's view sums: the flits buffered at the
// input port a packet traveling in direction d enters by.
func (r *refRouter) InPortOccupancy(d topology.Dir) int {
	n := 0
	for _, vc := range r.in[d.Opposite()].vcs {
		n += len(vc.buf)
	}
	return n
}

// Tick advances one cycle; each stage reads what the previous cycle left,
// so a flit moves at most one stage per cycle.
func (r *refRouter) Tick(now int64) {
	r.now = now
	r.release()
	r.traverse()
	r.switchAllocation()
	r.vcAllocation()
	r.routeCompute()
	r.pol.Update(r.OccupancyByKind())
}

// release frees every output VC whose tail has left and whose credits have
// all returned (atomic VC reuse). The Local output is the ejection sink: it
// never spends a credit, so its VCs free as soon as the tail has left.
func (r *refRouter) release() {
	for d := range r.out {
		for i := range r.out[d].vcs {
			if ov := &r.out[d].vcs[i]; ov.tailSent && ov.credits == r.cfg.Depth {
				*ov = refOutVC{credits: r.cfg.Depth}
			}
		}
	}
}

// traverse moves each ST register's flit onto its link.
func (r *refRouter) traverse() {
	for d := range r.out {
		if o := &r.out[d]; o.stValid {
			o.link.SendFlit(o.st)
			o.stValid = false
		}
	}
}

// switchAllocation is SA_in, one VC per input port, then SA_out, one input
// port per output port. A VC competes when it is Active, holds a flit and
// its output VC has a credit (or ejects).
func (r *refRouter) switchAllocation() {
	var nominee [topology.NumDirs]int
	for d := range r.in {
		var reqs [64]bool
		var prios [64]int
		req, prio := reqs[:len(r.kind)], prios[:len(r.kind)]
		for i := range r.in[d].vcs {
			vc := &r.in[d].vcs[i]
			if vc.stage != stageActive || len(vc.buf) == 0 {
				continue
			}
			if vc.outPort != topology.Local && r.out[vc.outPort].vcs[vc.outVC].credits == 0 {
				continue
			}
			req[i], prio[i] = true, r.saPriority(vc.owner)
		}
		nominee[d] = grant(&r.saInPtr[d], req, prio)
	}
	for od := range r.out {
		var req [topology.NumDirs]bool
		var prio [topology.NumDirs]int
		for d, i := range nominee {
			if i >= 0 && r.in[d].vcs[i].outPort == topology.Dir(od) {
				req[d], prio[d] = true, r.saPriority(r.in[d].vcs[i].owner)
			}
		}
		if w := grant(&r.saOutPtr[od], req[:], prio[:]); w >= 0 {
			r.transfer(topology.Dir(w), nominee[w])
		}
	}
}

// transfer moves the SA winner's front flit into its output's ST register,
// spends a downstream credit, returns one upstream, and on the tail hands
// the input VC back and marks the output VC draining.
func (r *refRouter) transfer(d topology.Dir, i int) {
	vc := &r.in[d].vcs[i]
	f := vc.buf[0]
	vc.buf = vc.buf[1:]
	f.VC = vc.outVC
	if f.Type.IsHead() {
		f.Pkt.Hops++
	}
	out := &r.out[vc.outPort]
	out.st, out.stValid = f, true
	if vc.outPort != topology.Local {
		out.vcs[vc.outVC].credits--
	}
	if l := r.in[d].link; l != nil {
		l.SendCredit(i)
	}
	if f.Type.IsTail() {
		out.vcs[vc.outVC].tailSent = true
		vc.owner, vc.stage = nil, stageIdle
	}
}

// vcAllocation is VA_in (each VA-stage VC requests one free output VC) then
// VA_out (one grant per requested output VC, under the VA priority).
func (r *refRouter) vcAllocation() {
	v := r.cfg.VCsPerPort()
	n := int(topology.NumDirs) * v
	var req [][]bool // per output VC; nil until a VC requests one
	var prio [][]int
	for d := range r.in {
		for i := range r.in[d].vcs {
			vc := &r.in[d].vcs[i]
			if vc.stage != stageVA {
				continue
			}
			og, cls := r.vaInput(vc)
			if og < 0 {
				continue
			}
			if req == nil {
				req, prio = make([][]bool, n), make([][]int, n)
			}
			if req[og] == nil {
				req[og], prio[og] = make([]bool, n), make([]int, n)
			}
			req[og][d*v+i] = true
			prio[og][d*v+i] = r.vaPriority(vc.owner, cls)
		}
	}
	for og := range req {
		if req[og] == nil {
			continue
		}
		w := grant(&r.vaPtr[og], req[og], prio[og])
		vc := &r.in[w/v].vcs[w%v]
		vc.stage, vc.outPort, vc.outVC = stageActive, topology.Dir(og/v), og%v
		r.out[og/v].vcs[og%v].owner = vc.owner
	}
}

// vaInput picks the output port (the only candidate, the escape direction
// on odd attempts, else the selection function) and a free output VC of
// the packet's class there: its own kind first (regional, or global for
// global traffic), then the other adaptive kind, then an escape VC, which
// only the escape direction may take. It returns the global output VC
// index (port×VCs + VC), or -1 when none is free.
func (r *refRouter) vaInput(vc *refInVC) (int, policy.VCClass) {
	pkt := vc.owner
	rt := r.alg.Route(r.at, pkt.Dst)
	port := rt.First
	switch {
	case rt.N == 1:
	case vc.attempts%2 == 1:
		port = rt.Esc
	default:
		port = r.sel.Select(r.node, pkt.Dst, []topology.Dir{rt.First, rt.Second}, r)
	}
	vc.attempts++
	kinds := []policy.VCClass{policy.VCRegional, policy.VCGlobal, policy.VCEscape}
	if pkt.Global {
		kinds[0], kinds[1] = policy.VCGlobal, policy.VCRegional
	}
	base := r.cfg.ClassBase(pkt.Class)
	for _, kind := range kinds {
		if kind == policy.VCEscape && port != rt.Esc {
			break
		}
		for i := base; i < base+r.cfg.VCsPerClass(); i++ {
			if r.kind[i] == kind && r.out[port].vcs[i].owner == nil {
				return int(port)*r.cfg.VCsPerPort() + i, kind
			}
		}
	}
	return -1, 0
}

// routeCompute moves the heads that arrived before this cycle into VA.
func (r *refRouter) routeCompute() {
	for d := range r.in {
		for i := range r.in[d].vcs {
			if vc := &r.in[d].vcs[i]; vc.stage == stageRC {
				vc.stage = stageVA
			}
		}
	}
}

// refNI is the network interface's executable specification: per-class
// source queues, one VC claimed per cycle (adaptive VCs before the escape
// VC, only fully credited, undrained ones), one flit sent per cycle
// round-robin over the streams with a credit, and a drained VC released at
// the end of the cycle its last credit came home in.
type refNI struct {
	cfg       Config
	regions   *region.Map
	inj       *refWire
	queues    [][]*msg.Packet // slot*Classes + class
	vcs       []refNIVC
	rrVC, rrQ int // where the send and claim rotations start
	onEject   func(*msg.Packet, int64)
}

type refNIVC struct {
	pkt      *msg.Packet // the packet streaming on the VC, nil when none
	next     int
	credits  int
	draining bool // every flit sent, credits still out
}

func newRefNI(cfg Config, regions *region.Map, onEject func(*msg.Packet, int64)) *refNI {
	ni := &refNI{cfg: cfg, regions: regions, onEject: onEject,
		queues: make([][]*msg.Packet, cfg.Classes*cfg.InjectorCount()),
		vcs:    make([]refNIVC, cfg.VCsPerPort())}
	for i := range ni.vcs {
		ni.vcs[i].credits = cfg.Depth
	}
	return ni
}

func (ni *refNI) ConnectInjection(w *refWire) { ni.inj = w }

// Inject stamps and queues a packet on injector slot 0.
func (ni *refNI) Inject(p *msg.Packet, now int64) {
	p.CreatedAt, p.Global, p.EjectedAt, p.InjectedAt = now, ni.regions.Global(p.Src, p.Dst), -1, -1
	ni.queues[p.Class] = append(ni.queues[p.Class], p)
}

// DeliverFlit consumes an ejected flit; the tail completes the packet.
func (ni *refNI) DeliverFlit(f msg.Flit, now int64) {
	if f.Type.IsTail() {
		f.Pkt.EjectedAt = now
		ni.onEject(f.Pkt, now)
	}
}

func (ni *refNI) DeliverCredit(vc int) { ni.vcs[vc].credits++ }

func (ni *refNI) Tick(now int64) {
	ni.claim()
	ni.send(now)
	for i := range ni.vcs {
		if vc := &ni.vcs[i]; vc.draining && vc.credits == ni.cfg.Depth {
			vc.draining = false
		}
	}
}

// claim starts at most one queued packet, taking the source queues in
// rotation from rrQ and skipping any whose class has no free VC.
func (ni *refNI) claim() {
	nq := len(ni.queues)
	for k := 0; k < nq; k++ {
		qi := (ni.rrQ + k) % nq
		if len(ni.queues[qi]) == 0 {
			continue
		}
		if i := ni.freeVC(msg.Class(qi % ni.cfg.Classes)); i >= 0 {
			ni.vcs[i].pkt, ni.vcs[i].next = ni.queues[qi][0], 0
			ni.queues[qi] = ni.queues[qi][1:]
			ni.rrQ = (qi + 1) % nq
			return
		}
	}
}

func (ni *refNI) freeVC(cls msg.Class) int {
	base := ni.cfg.ClassBase(cls)
	for _, escape := range []bool{false, true} {
		for i := base; i < base+ni.cfg.VCsPerClass(); i++ {
			vc := &ni.vcs[i]
			if (ni.cfg.KindOf(i) == policy.VCEscape) == escape &&
				vc.pkt == nil && !vc.draining && vc.credits == ni.cfg.Depth {
				return i
			}
		}
	}
	return -1
}

// send puts one flit on the injection wire: the first stream at or after
// rrVC that holds a credit.
func (ni *refNI) send(now int64) {
	if !ni.inj.CanSendFlit() {
		return
	}
	for k := range ni.vcs {
		i := (ni.rrVC + k) % len(ni.vcs)
		vc := &ni.vcs[i]
		if vc.pkt == nil || vc.credits == 0 {
			continue
		}
		f := msg.FlitAt(vc.pkt, vc.next)
		f.VC = i
		if f.Type.IsHead() {
			f.Pkt.InjectedAt = now
		}
		ni.inj.SendFlit(f)
		vc.credits--
		if vc.next++; vc.next == vc.pkt.Size {
			vc.pkt, vc.draining = nil, true
		}
		ni.rrVC = (i + 1) % len(ni.vcs)
		return
	}
}
