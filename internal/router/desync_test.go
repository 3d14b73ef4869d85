package router

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/routing"
	"rair/internal/topology"
)

// desync is one seeded corruption of the optimised datapath: apply checks
// its precondition on the real rig just before a router tick and, when it
// holds, corrupts one structure and reports true. Every structure the
// reference does not have — masks, counters, the shared scratch —
// is listed with the precondition under which the corruption must change
// what a neighbour sees; observable false marks the corruptions that only
// cost work.
type desync struct {
	name       string
	apply      func(g *rig) bool
	observable bool
}

var desyncs = []desync{
	// (a) A stream's output VC loses its credit bit while it holds every
	// credit and the stream's input buffer is empty: the next body flit never
	// becomes an SA candidate, and with no credit outstanding nothing heals
	// the bit.
	{"a/out.creditMask", func(g *rig) bool {
		r := g.router()
		for d := topology.North; d < topology.NumDirs; d++ {
			out := r.out[d]
			for m := out.streamMask & out.creditMask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if ov := &out.vcs[i]; int(ov.credits) == r.cfg.Depth && r.in[ov.inPort].occMask>>uint(ov.inVC)&1 == 0 {
					out.creditMask &^= 1 << uint(i)
					return true
				}
			}
		}
		return false
	}, true},
	// (b) The only SA candidate of a port, on an output nobody else wants,
	// leaves the candidate set; or a credit-dry stream whose tail is already
	// buffered loses its occupancy bit, so the refill never re-arms it.
	{"b/in.saElig", func(g *rig) bool {
		r := g.router()
		if d, i, ok := soleCandidate(r); ok {
			r.in[d].saElig &^= 1 << uint(i)
			return true
		}
		return false
	}, true},
	{"b/in.occMask", func(g *rig) bool {
		r := g.router()
		if d, i, ok := dryTailStream(r); ok {
			r.in[d].occMask &^= 1 << uint(i)
			return true
		}
		return false
	}, true},
	// (d) A VA request left standing in the shared scratch (its bit and its
	// row count) on the output VC a waiting head is about to request.
	{"d/scratch row", func(g *rig) bool { return plantStandingVA(g.router()) }, true},
	// (e) A stage counter one short: the only head in VA, or the only head
	// in RC, is skipped while the counter reads zero.
	{"e/vaCount", func(g *rig) bool {
		r := g.router()
		if _, _, og := predictVA(r); og < 0 || r.vaCount != 1 {
			return false
		}
		r.vaCount--
		return true
	}, true},
	{"e/rcCount", func(g *rig) bool {
		r := g.router()
		if r.rcCount != 1 {
			return false
		}
		r.rcCount--
		return true
	}, true},
	// (f) The NI: the stream it is about to send from loses its credit bit;
	// the VC it is about to claim loses its full-credit bit, or is marked
	// draining.
	{"f/NI creditMask", func(g *rig) bool {
		ni := g.ni.(*NI)
		if i := sendPick(ni); i >= 0 {
			ni.creditMask &^= 1 << uint(i)
			return true
		}
		return false
	}, true},
	{"f/NI fullMask", func(g *rig) bool {
		ni := g.ni.(*NI)
		if i := claimPick(ni); i >= 0 {
			ni.fullMask &^= 1 << uint(i)
			return true
		}
		return false
	}, true},
	{"f/NI drainMask", func(g *rig) bool {
		ni := g.ni.(*NI)
		if i := claimPick(ni); i >= 0 {
			ni.drainMask |= 1 << uint(i)
			return true
		}
		return false
	}, true},
	// The other shadow structures, under the same kind of precondition.
	{"out.freeMask", func(g *rig) bool {
		r := g.router()
		if _, _, og := predictVA(r); og >= 0 {
			r.out[og/r.nvc].freeMask &^= 1 << uint(og%r.nvc)
			return true
		}
		return false
	}, true},
	{"out.streamMask", func(g *rig) bool {
		r := g.router()
		if d, i, ok := dryTailStream(r); ok {
			vc := &r.in[d].vcs[i]
			r.out[vc.outPort].streamMask &^= 1 << uint(vc.outVC)
			return true
		}
		return false
	}, true},
	{"out reverse map", func(g *rig) bool {
		r := g.router()
		d, i, ok := dryTailStream(r)
		if !ok {
			return false
		}
		for j := range r.in[d].vcs {
			if r.in[d].vcs[j].owner == nil {
				vc := &r.in[d].vcs[i]
				r.out[vc.outPort].vcs[vc.outVC].inVC = int8(j) // an idle VC of the same port
				return true
			}
		}
		return false
	}, true},
	{"in.vaMask", func(g *rig) bool {
		r := g.router()
		if d, vc, og := predictVA(r); og >= 0 {
			r.in[d].vaMask &^= 1 << uint(vc.idx)
			return true
		}
		return false
	}, true},
	{"saPorts", func(g *rig) bool {
		r := g.router()
		if d, _, ok := soleCandidate(r); ok {
			r.saPorts &^= 1 << uint(d)
			return true
		}
		return false
	}, true},
	{"in.rcMask", func(g *rig) bool {
		r := g.router()
		for d := range r.in {
			if m := r.in[d].rcMask; m != 0 {
				r.in[d].rcMask &^= m & -m
				return true
			}
		}
		return false
	}, true},
	{"in.activeMask", func(g *rig) bool {
		r := g.router()
		if d, i, ok := idleStream(r); ok {
			r.in[d].activeMask &^= 1 << uint(i)
			return true
		}
		return false
	}, true},
	{"out.fullMask", func(g *rig) bool {
		r := g.router()
		for d := topology.North; d < topology.NumDirs; d++ {
			if m := r.out[d].drainMask & r.out[d].fullMask; m != 0 {
				r.out[d].fullMask &^= m & -m // due for release this tick
				return true
			}
		}
		return false
	}, true},
	{"out.drainMask", func(g *rig) bool {
		r := g.router()
		for d := topology.North; d < topology.NumDirs; d++ {
			if m := r.out[d].drainMask; m != 0 {
				r.out[d].drainMask &^= m & -m
				return true
			}
		}
		return false
	}, true},
	// The credit total feeds the selection function: make the port the
	// head would pick look full, so it picks the other one.
	{"out.creditSum", func(g *rig) bool {
		r := g.router()
		_, vc, og := predictVA(r)
		if og < 0 || vc.vaOdd || r.alg.Route(r.at, vc.owner.Dst).N != 2 {
			return false
		}
		r.out[og/r.nvc].creditSum -= 1000
		return true
	}, true},
	{"activeCount", func(g *rig) bool {
		r := g.router()
		if _, _, ok := soleCandidate(r); !ok || r.activeCount != 1 {
			return false
		}
		r.activeCount--
		return true
	}, true},
	// An occupied ST register's stBusy bit lost: its flit never leaves. A
	// stale bit on an output a sole candidate waits for: ST sends the old
	// flit again (a cardinal output, whose neighbour only banks a credit).
	{"stBusy", func(g *rig) bool {
		r := g.router()
		if r.stBusy == 0 {
			return false
		}
		r.stBusy &= r.stBusy - 1
		return true
	}, true},
	{"stBusy stale", func(g *rig) bool {
		r := g.router()
		d, i, ok := soleCandidate(r)
		if !ok {
			return false
		}
		od := r.in[d].vcs[i].outPort
		if topology.Dir(od) == topology.Local || r.out[od].st.Pkt == nil {
			return false
		}
		r.stBusy |= 1 << od
		return true
	}, true},
	// A held VC's native bit flipped: arbitration reads the wrong class,
	// and the tail's departure moves the wrong DPA register.
	{"in.native", func(g *rig) bool {
		r := g.router()
		for d := range r.in {
			for i := range r.in[d].vcs {
				if vc := &r.in[d].vcs[i]; vc.stage == stageActive && tailBuffered(vc) {
					r.in[d].native ^= 1 << uint(i)
					return true
				}
			}
		}
		return false
	}, true},
	{"NI streamMask", func(g *rig) bool {
		ni := g.ni.(*NI)
		if i := sendPick(ni); i >= 0 {
			ni.streamMask &^= 1 << uint(i)
			return true
		}
		return false
	}, true},
	{"NI streaming", func(g *rig) bool {
		ni := g.ni.(*NI)
		if sendPick(ni) < 0 || ni.streaming != 1 {
			return false
		}
		ni.streaming--
		return true
	}, true},
	// An NI's draining count one short as its lone drained VC comes home:
	// the VC is never freed. With no stream or queued packet, nothing can
	// drain in the same tick and restore the count before it is read.
	{"NI drainingN", func(g *rig) bool {
		ni := g.ni.(*NI)
		if ni.drainingN != 1 || ni.drainMask&ni.fullMask == 0 || ni.streaming+ni.queued != 0 {
			return false
		}
		ni.drainingN--
		return true
	}, true},
	{"NI queued", func(g *rig) bool {
		ni := g.ni.(*NI)
		if claimPick(ni) < 0 || ni.queued != 1 {
			return false
		}
		ni.queued--
		return true
	}, true},
	// A buffered run's fields, on a stream that must pop this tick with its
	// tail already buffered (no arrival can land on the corrupted run): a
	// front one back replays the flit before it and never reaches the tail,
	// and a count one short never pops the tail.
	{"run.front", func(g *rig) bool {
		vc := soleRun(g.router(), func(vc *inputVC) bool { return vc.front > 0 && vc.n > 1 })
		if vc == nil {
			return false
		}
		vc.front--
		return true
	}, true},
	{"run.n", func(g *rig) bool {
		vc := soleRun(g.router(), func(vc *inputVC) bool { return vc.n > 1 })
		if vc == nil {
			return false
		}
		vc.n--
		return true
	}, true},
	// Over-counts only keep stages (and the router's wake bit) running over
	// empty masks.
	{"vaCount+1", func(g *rig) bool { g.router().vaCount++; return true }, false},
	{"NI queued+1", func(g *rig) bool { g.ni.(*NI).queued++; return true }, false},
}

// TestSeededDesyncDiverges: every corruption of the table, applied once at
// the first tick its precondition holds, must take the router out of
// lockstep with the reference within the episode — on every seed where it
// was applied; the over-counts must not. A corruption that panics the
// router instead (an internal assertion) fails the row: the comparison has
// to be what catches it.
func TestSeededDesyncDiverges(t *testing.T) {
	spec := rigSpec{cfg: DefaultConfig(1), alg: routing.MinimalAdaptive{Mesh: rigMesh},
		pol: rairSpec}
	for _, c := range desyncs {
		t.Run(c.name, func(t *testing.T) {
			applied := 0
			for seed := int64(1); seed <= 12; seed++ {
				real := spec.real(NewSoA(spec.cfg, 2), 1, false)
				done, err := desyncEpisode(seed, real, spec.reference(), c.apply)
				if errors.Is(err, errPanicked) {
					t.Errorf("seed %d: %v", seed, err)
				}
				if !done || errors.Is(err, errPanicked) {
					continue
				}
				applied++
				if diverged := err != nil; diverged != c.observable {
					t.Errorf("seed %d: diverged=%v, want %v (%v)", seed, diverged, c.observable, err)
				}
			}
			if applied == 0 {
				t.Fatal("precondition never held")
			}
			t.Logf("applied on %d of 12 seeds", applied)
		})
	}
}

// errPanicked marks an episode a corruption ended in a panic.
var errPanicked = errors.New("panicked instead of diverging")

// desyncEpisode runs one episode of real against ref, applying the
// corruption before the first router tick where it applies. A panic inside
// the episode comes back wrapping errPanicked, which the caller must not
// mistake for a divergence.
func desyncEpisode(seed int64, real, ref *rig, apply func(*rig) bool) (applied bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	err = runEpisode(seed, []*rig{real, ref}, func() {
		if !applied {
			applied = apply(real)
		}
	}, func(int64) bool { return true })
	return applied, err
}

// TestSharedScratchHygiene: routers built over one store share its
// arbitration scratch. Contended VA and SA cycles on the store's first
// router must leave every request row clear, or the next router would
// arbitrate against phantom requests: the second router, run against the
// reference right after them, stays in lockstep — and the same episode
// with one standing VA request planted in the scratch leaves it.
func TestSharedScratchHygiene(t *testing.T) {
	spec := rigSpec{cfg: oneVCConfig(), alg: routing.MinimalAdaptive{Mesh: rigMesh}}
	for _, plant := range []bool{false, true} {
		soa := NewSoA(spec.cfg, 2)
		first := NewInStore(spec.cfg, 0, 0, rigMesh, rigRegions,
			spec.alg, routing.LocalSelector{}, policy.Spec{}, soa, 0)
		// Two heads contending for the one regional VC of the east port
		// (VA_out arbitration), then for the east port itself (SA_out).
		for i, d := range []topology.Dir{topology.Local, topology.South} {
			p := &msg.Packet{ID: uint64(i + 1), App: 0, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
			first.DeliverFlit(d, headFlit(p, 1))
		}
		east := NewLink(spec.cfg.LinkLatency)
		first.ConnectOut(topology.East, east)
		for now := int64(0); now < 8; now++ {
			east.ShiftFlits()
			first.Tick(now)
		}
		if first.FlitsSent(topology.East) != 2 {
			t.Fatalf("the first router sent %d flits east, want 2", first.FlitsSent(topology.East))
		}
		real := spec.real(soa, 1, false)
		applied, err := desyncEpisode(1, real, spec.reference(), func(g *rig) bool {
			return !plant || plantStandingVA(g.router())
		})
		switch {
		case errors.Is(err, errPanicked):
			t.Fatalf("plant=%v: %v", plant, err)
		case !applied:
			t.Fatalf("plant=%v: no head ever reached VA", plant)
		case !plant && err != nil:
			t.Fatalf("the second router left the reference after the first one's contended cycles: %v", err)
		case plant && err == nil:
			t.Fatal("a standing VA request in the shared scratch went unnoticed")
		}
	}
}

// plantStandingVA leaves a filed VA request standing in r's shared scratch
// on the output VC a head waiting in VA is about to request.
func plantStandingVA(r *Router) bool {
	_, vc, og := predictVA(r)
	if og < 0 {
		return false
	}
	nIn := int(topology.NumDirs) * r.nvc
	i := (int(vc.idx) + 1) % nIn
	r.soa.vaReqN[og] = 1
	r.soa.vaReq[og*((nIn+63)>>6)+i>>6] |= 1 << uint(i&63)
	return true
}

// predictVA returns the first head waiting in VA, its port, and the output
// VC it requests this tick (-1 when none), leaving the router as it was.
func predictVA(r *Router) (topology.Dir, *inputVC, int) {
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if m := r.in[d].vaMask; m != 0 {
			vc := &r.in[d].vcs[bits.TrailingZeros64(m)]
			og, _ := r.vaInput(vc)
			vc.vaOdd = !vc.vaOdd
			return d, vc, og
		}
	}
	return 0, nil, -1
}

// soleCandidate finds a port whose only SA candidate targets an output
// with a free ST register that no other port's candidate targets: SA must
// grant it this tick.
func soleCandidate(r *Router) (topology.Dir, int, bool) {
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		elig := r.in[d].saElig
		if bits.OnesCount64(elig) != 1 {
			continue
		}
		i := bits.TrailingZeros64(elig)
		od := r.in[d].vcs[i].outPort
		if r.stBusy>>od&1 == 1 {
			continue
		}
		alone := true
		for d2 := topology.Dir(0); d2 < topology.NumDirs; d2++ {
			for m := r.in[d2].saElig; d2 != d && m != 0; m &= m - 1 {
				alone = alone && r.in[d2].vcs[bits.TrailingZeros64(m)].outPort != od
			}
		}
		if alone {
			return d, i, true
		}
	}
	return 0, 0, false
}

// soleRun returns the soleCandidate stream's VC when its tail is buffered
// and ok holds for it, else nil.
func soleRun(r *Router, ok func(*inputVC) bool) *inputVC {
	d, i, found := soleCandidate(r)
	if !found {
		return nil
	}
	if vc := &r.in[d].vcs[i]; tailBuffered(vc) && ok(vc) {
		return vc
	}
	return nil
}

// dryTailStream finds a stream waiting on a credit with its whole remainder,
// tail included, buffered: no flit arrival can re-arm it, only the refill.
func dryTailStream(r *Router) (topology.Dir, int, bool) {
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		in := r.in[d]
		for m := in.activeMask & in.occMask &^ in.saElig; m != 0; m &= m - 1 {
			vc := &in.vcs[bits.TrailingZeros64(m)]
			if topology.Dir(vc.outPort) != topology.Local && tailBuffered(vc) {
				return d, int(vc.idx), true
			}
		}
	}
	return 0, 0, false
}

// idleStream finds a stream holding every credit of its output VC with an
// empty input buffer: only a flit arrival can make it a candidate again.
func idleStream(r *Router) (topology.Dir, int, bool) {
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		in := r.in[d]
		for m := in.activeMask &^ in.occMask; m != 0; m &= m - 1 {
			vc := &in.vcs[bits.TrailingZeros64(m)]
			if topology.Dir(vc.outPort) != topology.Local && int(r.out[vc.outPort].vcs[vc.outVC].credits) == r.cfg.Depth {
				return d, int(vc.idx), true
			}
		}
	}
	return 0, 0, false
}

// sendPick is the VC the NI's next send takes (-1: none).
func sendPick(ni *NI) int {
	m := ni.streamMask & ni.creditMask
	if m == 0 || !ni.inj.CanSendFlit() {
		return -1
	}
	if hi := m >> uint(ni.rrVC) << uint(ni.rrVC); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(m)
}

// claimPick is the VC the NI's next claim takes (-1: none).
func claimPick(ni *NI) int {
	for k := range ni.queues {
		qi := (ni.rrQ + k) % len(ni.queues)
		if ni.queues[qi].Empty() {
			continue
		}
		if i := ni.freeVC(msg.Class(qi % ni.cfg.Classes)); i >= 0 {
			return i
		}
	}
	return -1
}

// tailBuffered reports whether vc's run ends with its owner's tail: no
// further flit will arrive on the VC until the run has drained.
func tailBuffered(vc *inputVC) bool {
	return vc.n > 0 && int(vc.front)+int(vc.n) == vc.owner.Size
}
