package router

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"rair/internal/arbiter"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/routing"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// The lockstep rig: the router at the centre of a 3×3 mesh and its NI,
// every port wired to a link whose far end runEpisode plays — four
// upstream neighbours feeding the cardinal inputs, four downstream
// neighbours draining the cardinal outputs and returning their credits out
// of order, and the NI on the local port pair. The optimised Router/NI and
// the reference (reference_test.go) each get their own links and packet
// copies, see the same event stream, and are compared every cycle on what
// a neighbour can observe.
const (
	rigNode       = 4
	episodeCycles = 300
)

var (
	rigMesh    = topology.NewMesh(3, 3)
	rigRegions = region.Quadrants(rigMesh) // the centre node is app 3
)

// routerDUT and niDUT are what runEpisode needs of a router and an NI: the
// optimised ones and the reference implement both.
type routerDUT interface {
	ConnectIn(topology.Dir, *Link)
	ConnectOut(topology.Dir, *Link)
	DeliverFlit(topology.Dir, msg.Flit)
	DeliverCredit(topology.Dir, int)
	Tick(int64)
	OccupancyByKind() (native, foreign int)
}

type niDUT interface {
	Links() (inj, ej *Link)
	Inject(*msg.Packet, int64)
	DeliverFlit(msg.Flit, int64)
	DeliverCredit(int)
	Tick(int64)
}

// rig is one router/NI pair under test, with the links it is wired
// to (Local: the NI's injection and ejection link), its copies of every
// packet, and its telemetry probe (nil when off). long makes the
// neighbours' packets 70–90 flits instead of 1–8.
type rig struct {
	cfg     Config
	long    bool
	r       routerDUT
	ni      niDUT
	in, out [topology.NumDirs]*Link
	pkts    []*msg.Packet
	ejected int
	tel     *telemetry.Probe
}

// rigSpec is one cell of the configuration matrix.
type rigSpec struct {
	cfg  Config
	alg  routing.Algorithm
	pol  policy.Spec
	long bool // 70–90-flit packets (see rig)
}

// real builds the optimised Router and NI over slot li of soa (nil: a
// store of their own).
func (s rigSpec) real(soa *SoA, li int, tel bool) *rig {
	if soa == nil {
		soa = NewSoA(s.cfg, 1)
	}
	g := &rig{cfg: s.cfg, long: s.long}
	r := NewInStore(s.cfg, rigNode, rigRegions.AppAt(rigNode), rigMesh, rigRegions,
		s.alg, routing.LocalSelector{}, s.pol, soa, li)
	ni := NewNIInStore(s.cfg, rigNode, rigRegions, func(*msg.Packet, int64) { g.ejected++ }, soa, li)
	if tel {
		col := telemetry.NewCollector(telemetry.Config{TraceEvery: 1, Attribution: true})
		g.tel = col.ProbeFor(rigNode, rigRegions.AppAt(rigNode))
		r.SetTelemetry(g.tel)
		ni.SetTelemetry(g.tel)
	}
	g.r, g.ni = r, ni
	g.wire()
	return g
}

// reference builds the executable specification of the same cell.
func (s rigSpec) reference() *rig {
	g := &rig{cfg: s.cfg, long: s.long}
	g.r = newRefRouter(s.cfg, rigNode, rigRegions.AppAt(rigNode), rigMesh, s.alg, routing.LocalSelector{}, s.pol)
	g.ni = newRefNI(s.cfg, rigRegions, func(*msg.Packet, int64) { g.ejected++ })
	g.wire()
	return g
}

func (g *rig) wire() {
	g.in[topology.Local], g.out[topology.Local] = g.ni.Links()
	for d := topology.North; d < topology.NumDirs; d++ {
		g.in[d], g.out[d] = NewLink(g.cfg.LinkLatency), NewLink(g.cfg.LinkLatency)
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		g.r.ConnectIn(d, g.in[d])
		g.r.ConnectOut(d, g.out[d])
	}
}

// router returns the optimised router of a real rig.
func (g *rig) router() *Router { return g.r.(*Router) }

// nativeHigh is the rig's DPA state: whether native traffic holds the
// high priority.
func (g *rig) nativeHigh() bool {
	if r, ok := g.r.(*Router); ok {
		return r.pol.NativeHigh()
	}
	return g.r.(*refRouter).pol.NativeHigh()
}

// flitSeen is a flit as the router across the link sees it (zero: none).
type flitSeen struct {
	ID        uint64
	Seq, VC   int
	Hops      int
	Type      msg.FlitType
	Lifecycle int64 // InjectedAt on the injection link, EjectedAt on ejection
}

func seen(f msg.Flit) flitSeen {
	return flitSeen{ID: f.Pkt.ID, Seq: f.Seq, VC: f.VC, Hops: f.Pkt.Hops, Type: f.Type}
}

// cycleSeen is everything one cycle shows the router's neighbours.
type cycleSeen struct {
	Out        [topology.NumDirs]flitSeen // off each output link (Local: ejected into the NI)
	Inj        flitSeen                   // off the NI's injection link
	Credit     [topology.NumDirs]int      // off each input link's credit wire, -1 none (Local: to the NI)
	OVC        [2]int                     // OVC_n, OVC_f after the tick
	NativeHigh bool                       // the DPA mode after the tick
}

// episode is runEpisode's end of every link: the upstream neighbours'
// credits and half-sent packets per input VC, and the credits each
// downstream neighbour holds for flits it has received.
type episode struct {
	rng       *rand.Rand
	rigs      []*rig
	now       int64
	load      int // percent chance an upstream neighbour offers a flit in a cycle
	drain     int // percent chance a downstream neighbour returns a credit
	upCredits [topology.NumDirs][]int
	feeds     [topology.NumDirs][]*feed
	banked    [topology.NumDirs][]int
}

type feed struct{ pkt, next int } // index into every rig's pkts; next flit

// runEpisode drives the rigs through one random episode of episodeCycles
// cycles (eight times as many with long packets) and returns the first cycle on which any rig shows its neighbours
// something rigs[0] does not (nil when they stayed in lockstep). Every
// random decision is drawn once, reading rigs[0] where it depends on the
// state of a link, and applied to every rig. Each cycle is the engine's: the
// link phase (credits to the router's outputs, flits into its inputs,
// credits to the upstream neighbours and the NI, flits to the downstream
// neighbours and the NI), the neighbours' moves (one out-of-order credit
// per output, one flit per input, an NI injection), then the compute phase:
// the router and the NI tick. preTick runs just before the router ticks;
// postCycle runs after every cycle and ends the episode by returning false.
func runEpisode(seed int64, rigs []*rig, preTick func(), postCycle func(cycle int64) bool) error {
	cfg := rigs[0].cfg
	e := &episode{rng: rand.New(rand.NewSource(seed)), rigs: rigs,
		load: 20 + 20*int(seed%3), drain: 40 + 30*int(seed/3%2)}
	v := cfg.VCsPerPort()
	for d := topology.North; d < topology.NumDirs; d++ {
		e.upCredits[d] = make([]int, v)
		for i := range e.upCredits[d] {
			e.upCredits[d][i] = cfg.Depth
		}
		e.feeds[d] = make([]*feed, v)
	}
	obs := make([]cycleSeen, len(rigs))
	arbs := make([][]arbiter.Prioritized, len(rigs))
	cycles := int64(episodeCycles)
	if rigs[0].long {
		cycles *= 8
	}
	for ; e.now < cycles; e.now++ {
		for k, g := range rigs {
			obs[k] = e.linkPhase(g)
		}
		for d := topology.North; d < topology.NumDirs; d++ {
			if vc := obs[0].Credit[d]; vc >= 0 {
				e.upCredits[d][vc]++
			}
			if f := obs[0].Out[d]; f.ID != 0 {
				e.banked[d] = append(e.banked[d], f.VC)
			}
			e.downstream(d)
			e.upstream(d)
		}
		if e.rng.Intn(200) < e.load {
			e.inject()
		}
		preTick()
		for k, g := range rigs {
			g.r.Tick(e.now)
			g.ni.Tick(e.now)
			obs[k].OVC[0], obs[k].OVC[1] = g.r.OccupancyByKind()
			obs[k].NativeHigh = g.nativeHigh()
			if k > 0 && obs[k] != obs[0] {
				return fmt.Errorf("cycle %d: rig %d shows\n%+v\nrig 0 shows\n%+v", e.now, k, obs[k], obs[0])
			}
			if arbs[k] = arbiters(arbs[k][:0], g.r); k > 0 && !slices.Equal(arbs[k], arbs[0]) {
				return fmt.Errorf("cycle %d: rig %d leaves the arbiters\n%+v\nrig 0 leaves\n%+v", e.now, k, arbs[k], arbs[0])
			}
		}
		if !postCycle(e.now) {
			return nil
		}
	}
	return nil
}

// arbiters appends to as a router's arbiters: SA_in per input port, SA_out
// per output port, VA_out per output VC. The reference keeps plain-int
// pointers; each becomes the arbiter that a GrantSingle to the index
// before the pointer leaves, so the two compare pointer for pointer.
func arbiters(as []arbiter.Prioritized, dut routerDUT) []arbiter.Prioritized {
	if r, ok := dut.(*Router); ok {
		return append(append(append(as, r.saInArb[:]...), r.saOutArb[:]...), r.vaArb...)
	}
	r := dut.(*refRouter)
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

// linkPhase shifts every wire of one rig and delivers what arrives.
func (e *episode) linkPhase(g *rig) cycleSeen {
	var s cycleSeen
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if vc, ok := g.out[d].ShiftCredits(); ok {
			g.r.DeliverCredit(d, vc)
		}
		if f, ok := g.in[d].ShiftFlits(); ok {
			g.r.DeliverFlit(d, f)
			if d == topology.Local {
				s.Inj = seen(f)
				s.Inj.Lifecycle = f.Pkt.InjectedAt
			}
		}
		s.Credit[d] = -1
		if vc, ok := g.in[d].ShiftCredits(); ok {
			s.Credit[d] = vc
			if d == topology.Local {
				g.ni.DeliverCredit(vc)
			}
		}
		if f, ok := g.out[d].ShiftFlits(); ok {
			s.Out[d] = seen(f)
			if d == topology.Local {
				g.ni.DeliverFlit(f, e.now)
				s.Out[d].Lifecycle = f.Pkt.EjectedAt
			}
		}
	}
	return s
}

// downstream returns one of the credits the neighbour at d holds, chosen
// at random (out of order), most cycles.
func (e *episode) downstream(d topology.Dir) {
	if len(e.banked[d]) == 0 || e.rng.Intn(100) >= e.drain {
		return
	}
	i := e.rng.Intn(len(e.banked[d]))
	for _, g := range e.rigs {
		g.out[d].SendCredit(e.banked[d][i])
	}
	e.banked[d] = append(e.banked[d][:i], e.banked[d][i+1:]...)
}

// upstream sends at most one flit from the neighbour at d: the next flit
// of a random half-sent packet with a credit, else the head of a new packet
// on a VC whose last packet has fully drained (all its credits home).
// Packets mostly take adaptive VCs and sometimes the escape VC of their
// class, as an upstream allocator may.
func (e *episode) upstream(d topology.Dir) {
	cfg := e.rigs[0].cfg
	if e.rng.Intn(100) >= e.load || !e.rigs[0].in[d].CanSendFlit() {
		return
	}
	for _, i := range e.rng.Perm(cfg.VCsPerPort()) {
		if e.feeds[d][i] != nil && e.upCredits[d][i] > 0 {
			e.sendUp(d, i)
			return
		}
	}
	src := rigMesh.Neighbor(rigNode, d)
	pkt := e.packet(src, e.rng.Intn(rigMesh.N()))
	lo, n := cfg.ClassBase(pkt.Class)+cfg.EscapeVCs, cfg.AdaptiveVCs
	if e.rng.Intn(100) < 20 {
		lo, n = cfg.ClassBase(pkt.Class), cfg.EscapeVCs
	}
	i := lo + e.rng.Intn(n)
	if e.feeds[d][i] != nil || e.upCredits[d][i] != cfg.Depth {
		return
	}
	e.feeds[d][i] = &feed{pkt: e.add(pkt)}
	e.sendUp(d, i)
}

func (e *episode) sendUp(d topology.Dir, i int) {
	fd := e.feeds[d][i]
	for _, g := range e.rigs {
		f := msg.FlitAt(g.pkts[fd.pkt], fd.next)
		f.VC = i
		g.in[d].SendFlit(f)
	}
	e.upCredits[d][i]--
	if fd.next++; fd.next == e.rigs[0].pkts[fd.pkt].Size {
		e.feeds[d][i] = nil
	}
}

// inject queues a new packet at the NI for any other node.
func (e *episode) inject() {
	dst := e.rng.Intn(rigMesh.N() - 1)
	if dst >= rigNode {
		dst++
	}
	i := e.add(e.packet(rigNode, dst))
	for _, g := range e.rigs {
		g.ni.Inject(g.pkts[i], e.now)
	}
}

// packet draws a packet from src to dst: half of them native to the
// router's region, of random size, class and age (RO_Rank batches by age).
func (e *episode) packet(src, dst int) msg.Packet {
	app := rigRegions.AppAt(rigNode)
	if e.rng.Intn(2) == 0 {
		app = e.rng.Intn(rigRegions.NumApps())
	}
	class := msg.Class(e.rng.Intn(e.rigs[0].cfg.Classes))
	size := 1 + e.rng.Intn(8)
	if e.rigs[0].long {
		size = 70 + e.rng.Intn(21)
	}
	return msg.Packet{
		ID: uint64(len(e.rigs[0].pkts) + 1), App: app, Src: src, Dst: dst, FinalDst: dst,
		Class: class, Size: size,
		Global: rigRegions.Global(src, dst), CreatedAt: e.now - int64(e.rng.Intn(600)),
	}
}

// add gives every rig its own copy of p (routers write hop counts, blame
// and lifecycle stamps into packets) and returns its index.
func (e *episode) add(p msg.Packet) int {
	for _, g := range e.rigs {
		q := p
		g.pkts = append(g.pkts, &q)
	}
	return len(e.rigs[0].pkts) - 1
}

// rairSpec is the full RAIR: DPA at the default Δ, MSP at VA and SA.
var rairSpec = policy.Spec{Priority: policy.DPA, Delta: policy.DefaultDelta}

// lockstepSpecs is the configuration matrix: seven policies × six router
// configurations × three routing algorithms, plus one cell whose VCs hold
// 80 flits and whose packets are 70–90 flits long, so a buffered run can
// outgrow 64 flits.
func lockstepSpecs() map[string]rigSpec {
	policies := map[string]policy.Spec{
		"RO_RR":    {},
		"RO_Rank":  {Priority: policy.Rank, Ranks: policy.FixedRanks([]int{2, 0, 3, 1}), Batch: policy.BatchInterval},
		"RO_Age":   {Priority: policy.Age},
		"RA_RAIR":  rairSpec,
		"RAIR_VA":  {Priority: policy.DPA, MSP: policy.VAOnly, Delta: policy.DefaultDelta},
		"NativeH":  {Priority: policy.NativeH},
		"ForeignH": {Priority: policy.ForeignH},
	}
	configs := map[string]Config{
		"table1":    DefaultConfig(1),
		"classes2":  DefaultConfig(2),
		"oneVC":     oneVCConfig(),
		"global0":   withConfig(func(c *Config) { c.GlobalVCs = 0 }),
		"allGlobal": withConfig(func(c *Config) { c.GlobalVCs = c.AdaptiveVCs }),
		"latency1":  withConfig(func(c *Config) { c.LinkLatency = 1 }),
	}
	algs := map[string]routing.Algorithm{
		"MinAdaptive": routing.MinimalAdaptive{Mesh: rigMesh},
		"XY":          routing.XY{Mesh: rigMesh},
		"WestFirst":   routing.WestFirst{Mesh: rigMesh},
	}
	specs := map[string]rigSpec{}
	for pn, pol := range policies {
		for cn, cfg := range configs {
			for an, alg := range algs {
				specs[pn+"/"+cn+"/"+an] = rigSpec{cfg: cfg, alg: alg, pol: pol}
			}
		}
	}
	specs["RA_RAIR/long/MinAdaptive"] = rigSpec{cfg: withConfig(func(c *Config) { c.Depth = 80 }),
		alg: algs["MinAdaptive"], pol: rairSpec, long: true}
	return specs
}

// withConfig is the Table 1 configuration (one class) with one edit.
func withConfig(edit func(*Config)) Config {
	c := DefaultConfig(1)
	edit(&c)
	return c
}

// TestReferenceLockstep is the router's oracle: on every cell of the
// configuration matrix and 24 seeds, the optimised Router and NI — masks,
// stage counters, SoA slabs, buffered runs — must show their neighbours
// exactly what the reference shows, every cycle. The totals guard against
// a vacuous pass: flits must move and DPA must flip.
func TestReferenceLockstep(t *testing.T) {
	var flits, ejected, dpaFlips atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for name, spec := range lockstepSpecs() {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 24; seed++ {
					real, ref := spec.real(nil, 0, false), spec.reference()
					nativeHigh := false
					err := runEpisode(seed, []*rig{real, ref}, func() {}, func(int64) bool {
						if real.nativeHigh() != nativeHigh {
							nativeHigh = !nativeHigh
							dpaFlips.Add(1)
						}
						return true
					})
					if err != nil {
						t.Fatalf("seed %d: the router left the reference: %v", seed, err)
					}
					for d := topology.Dir(0); d < topology.NumDirs; d++ {
						flits.Add(real.router().FlitsSent(d))
					}
					ejected.Add(int64(real.ejected))
				}
			})
		}
	})
	if flits.Load() == 0 || ejected.Load() == 0 || dpaFlips.Load() == 0 {
		t.Fatalf("episodes too quiet: %d flits sent, %d packets ejected, %d DPA flips",
			flits.Load(), ejected.Load(), dpaFlips.Load())
	}
}
