package router

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rair/internal/arbiter"
	"rair/internal/core"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// TestIncrementalCandidateEquivalence is the testing/quick property for the
// persistent SA candidate sets: random event sequences — packet starts,
// staggered flit arrivals, delayed credit returns, link holds, fault-style
// stall cycles — drive a router while AuditMasks recomputes every
// incremental structure (saElig/saPorts, streamMask, the output reverse
// maps, the armed plan) from authoritative per-VC state after every cycle.
// Any divergence between the event-maintained sets and the full reference
// rescan fails the property with the offending seed.
func TestIncrementalCandidateEquivalence(t *testing.T) {
	var sent, fast int64
	prop := func(seed uint64) bool {
		g := newRig(policy.NewRoundRobin(0, 0), false)
		clean := true
		runEpisode(int64(seed), []*rig{g}, func() {}, func(cycle int64) bool {
			g.r.AuditMasks(func(desc string) {
				t.Logf("seed %d cycle %d: %s", seed, cycle, desc)
				clean = false
			})
			return clean
		})
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			sent += g.r.FlitsSent(d)
		}
		fast += g.r.FastTicks()
		return clean
	}
	qc := &quick.Config{MaxCount: 40}
	if testing.Short() {
		qc.MaxCount = 8
	}
	if err := quick.Check(prop, qc); err != nil {
		t.Fatal(err)
	}
	// Guard against a vacuous pass: the random episodes must actually
	// move flits and replay plans somewhere.
	if sent == 0 || fast == 0 {
		t.Fatalf("episodes too quiet to prove anything: %d flits sent, %d replayed ticks", sent, fast)
	}
}

// TestReplayMatchesArbitration is the differential oracle for plan replay:
// two routers see one seeded event stream, and one of them has its plan
// disarmed before every Tick, so it arbitrates every cycle. After every
// cycle everything arbitration leaves behind — ST registers, flits sent,
// arbiter pointers, candidate sets, the work mirror, telemetry counters and
// per-packet blame — must be equal and the replaying twin's plan must audit
// clean, and at the end the lifecycle traces must be equal too.
// The seeds must reach the three ways a plan ends without an arrival: a
// co-resident stream credit-dry on a planned output (the case the old
// single-stream arming rule kept out of the fast path), a link hold on a
// planned output, and a tail.
func TestReplayMatchesArbitration(t *testing.T) {
	var cov struct{ sharedDry, hold, tail int }
	var fast int64
	for seed := int64(1); seed <= 24; seed++ {
		a := newRig(core.New(core.Config{}), true)
		b := newRig(core.New(core.Config{}), true)
		runEpisode(seed, []*rig{a, b}, func() {
			b.r.fastArmed = false
			r := a.r
			if !r.fastArmed {
				return
			}
			for pm := r.planPorts; pm != 0; pm &= pm - 1 {
				d := bits.TrailingZeros8(pm)
				vc := r.saOutVC[d]
				out := r.out[vc.outPort]
				if out.stValid && !out.link.CanSendFlit() {
					cov.hold++
				}
				if r.in[d].saElig>>uint(vc.idx)&1 == 1 && vc.buf.At(0).Type.IsTail() {
					cov.tail++
				}
				for m := out.streamMask &^ out.creditMask &^ (1 << uint(vc.outVC)); m != 0; m &= m - 1 {
					ov := &out.vcs[bits.TrailingZeros64(m)]
					if r.in[ov.inPort].occMask>>uint(ov.inVC)&1 == 1 {
						cov.sharedDry++
					}
				}
			}
		}, func(cycle int64) bool {
			if sa, sb := a.state(), b.state(); sa != sb {
				t.Fatalf("seed %d cycle %d: replaying twin\n%+v\narbitrating twin\n%+v", seed, cycle, sa, sb)
			}
			for i, p := range a.pkts {
				if q := b.pkts[i]; p.Blame != q.Blame || p.Hops != q.Hops {
					t.Fatalf("seed %d cycle %d: %v blame %v hops %d replaying, blame %v hops %d arbitrating",
						seed, cycle, p, p.Blame, p.Hops, q.Blame, q.Hops)
				}
			}
			a.r.AuditMasks(func(desc string) {
				t.Fatalf("seed %d cycle %d: replaying twin: %s", seed, cycle, desc)
			})
			return true
		})
		if ea, eb := a.tel.Events(), b.tel.Events(); !reflect.DeepEqual(ea, eb) {
			t.Fatalf("seed %d: lifecycle traces differ (%d vs %d events)", seed, len(ea), len(eb))
		}
		if b.r.FastTicks() != 0 {
			t.Fatalf("seed %d: the arbitrating twin replayed %d ticks", seed, b.r.FastTicks())
		}
		fast += a.r.FastTicks()
	}
	if fast == 0 || cov.sharedDry == 0 || cov.hold == 0 || cov.tail == 0 {
		t.Fatalf("seeds miss a case: %d replayed ticks, coverage %+v", fast, cov)
	}
}

// rig is one router under the episode driver: node 0 of a 2×1 mesh with an
// east output link (credited) and a local ejection link (uncredited), the
// packets delivered to it, and its telemetry probe (nil when off).
type rig struct {
	r           *Router
	east, local *Link
	pkts        []*msg.Packet
	tel         *telemetry.Probe
}

func newRig(pol policy.Policy, tel bool) *rig {
	cfg := DefaultConfig(1)
	g := &rig{local: NewLink(cfg.LinkLatency)}
	g.r, g.east = testRouter(cfg, pol)
	g.r.ConnectOut(topology.Local, g.local)
	if tel {
		col := telemetry.NewCollector(telemetry.Config{TraceEvery: 1, Attribution: true})
		g.tel = col.ProbeFor(0, 0)
		g.r.SetTelemetry(g.tel)
	}
	return g
}

// rigState is everything a cycle of ST+SA leaves behind, in comparable form.
type rigState struct {
	ST           [topology.NumDirs]string
	Sent         [topology.NumDirs]int64
	SAIn, SAOut  [topology.NumDirs]arbiter.Prioritized
	Elig, Occ    [topology.NumDirs]vcMask
	SAPorts      uint8
	Work         int
	Native, Frgn int
	Counters     telemetry.Counters
}

func (g *rig) state() rigState {
	r := g.r
	s := rigState{SAIn: r.saInArb, SAOut: r.saOutArb, SAPorts: r.saPorts,
		Work: int(r.soa.Work[r.li]), Counters: g.tel.Counters()}
	s.Native, s.Frgn = r.OccupancyByKind()
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if f, ok := r.STRegister(d); ok {
			s.ST[d] = fmt.Sprintf("#%d/%d %v vc%d", f.Pkt.ID, f.Seq, f.Type, f.VC)
		}
		s.Sent[d] = r.FlitsSent(d)
		s.Elig[d], s.Occ[d] = r.in[d].saElig, r.in[d].occMask
	}
	return s
}

// runEpisode drives the rigs through one ~300-cycle random episode. Every
// random decision is drawn once, reading the first rig where it depends on
// router state, and applied to all of them (each rig gets its own copy of
// every packet, since routers write hop counts and blame into packets).
// preTick runs before the rigs tick; postCycle runs after every cycle with
// the cycle just completed and ends the episode by returning false.
func runEpisode(seed int64, rigs []*rig, preTick func(), postCycle func(cycle int64) bool) {
	rng := rand.New(rand.NewSource(seed))
	lead := rigs[0].r
	cfg := lead.cfg
	nvc := cfg.VCsPerPort()

	// Upstream traffic models for the two linkless source ports: one
	// in-flight packet per (port, VC), delivered one flit per port per
	// cycle at random (staggered arrivals create occupancy edges).
	type feed struct {
		pkt  int // index into every rig's pkts
		next int
	}
	srcPorts := []topology.Dir{topology.North, topology.South}
	feeds := map[topology.Dir][]*feed{}
	for _, d := range srcPorts {
		feeds[d] = make([]*feed, nvc)
	}
	deliver := func(d topology.Dir, fd *feed, v int) {
		for _, g := range rigs {
			fl := msg.FlitAt(g.pkts[fd.pkt], fd.next)
			fl.VC = v
			g.r.DeliverFlit(d, fl)
		}
		fd.next++
	}
	// Arrival VCs mirror what an upstream allocator could legally hand
	// this router: mostly regional VCs, occasionally the escape VC.
	arrivalVC := func() int {
		m := lead.regionalMask
		if rng.Intn(100) < 20 {
			m = lead.escapeMask
		}
		choices := make([]int, 0, nvc)
		for i := 0; i < nvc; i++ {
			if m>>uint(i)&1 == 1 {
				choices = append(choices, i)
			}
		}
		return choices[rng.Intn(len(choices))]
	}

	// Credits for flits that left eastwards are returned out of order and
	// with random delay, driving the credit-dry/credit-refill events.
	var heldCredits []int
	var now int64
	for cycle := 0; cycle < 300; cycle++ {
		// Link phase by hand: deliver any credit already in flight, drain
		// both output wires and bank the east flit's credit. A wire left
		// unshifted keeps its entry register occupied, which is how a
		// faulty link's retransmission holds the sender's ST register.
		holdEast, holdLocal := rng.Intn(100) < 6, rng.Intn(100) < 3
		for i, g := range rigs {
			if cr, ok := g.east.ShiftCredits(now); ok {
				g.r.DeliverCredit(topology.East, cr)
			}
			if !holdEast {
				if f, ok := g.east.ShiftFlits(now); ok && i == 0 {
					heldCredits = append(heldCredits, f.VC)
				}
			}
			if !holdLocal {
				g.local.ShiftFlits(now)
			}
		}
		if len(heldCredits) > 0 && rng.Intn(100) < 70 {
			i := rng.Intn(len(heldCredits))
			for _, g := range rigs {
				g.east.SendCredit(heldCredits[i])
			}
			heldCredits = append(heldCredits[:i], heldCredits[i+1:]...)
		}

		// Injection phase: per source port, continue or start at most one
		// upstream stream (one flit per port wire per cycle).
		for _, d := range srcPorts {
			if rng.Intn(100) >= 70 {
				continue
			}
			in := lead.in[d]
			// Prefer continuing a random in-flight feed with buffer room.
			delivered := false
			for _, v := range rng.Perm(nvc) {
				fd := feeds[d][v]
				if fd == nil || in.vcs[v].buf.Len() >= cfg.Depth {
					continue
				}
				deliver(d, fd, v)
				if fd.next == rigs[0].pkts[fd.pkt].Size {
					feeds[d][v] = nil
				}
				delivered = true
				break
			}
			if delivered {
				continue
			}
			// Otherwise start a new packet on a free VC.
			v := arrivalVC()
			if feeds[d][v] != nil || in.vcs[v].owner != nil {
				continue
			}
			pkt := msg.Packet{
				ID: uint64(len(rigs[0].pkts) + 1), App: rng.Intn(2), Src: 0, Dst: b2i(rng.Intn(100) < 60),
				Size: 1 + rng.Intn(8), Class: msg.ClassRequest,
			}
			for _, g := range rigs {
				p := pkt
				g.pkts = append(g.pkts, &p)
			}
			fd := &feed{pkt: len(rigs[0].pkts) - 1}
			deliver(d, fd, v)
			if fd.next < pkt.Size {
				feeds[d][v] = fd
			}
		}

		// Compute phase, with fault-style stall cycles: the engine visits
		// a stalled router without ticking it, while links keep moving.
		if rng.Intn(100) >= 10 {
			preTick()
			for _, g := range rigs {
				g.r.Tick(now)
			}
			now++
		}
		if !postCycle(now) {
			return
		}
	}
}
