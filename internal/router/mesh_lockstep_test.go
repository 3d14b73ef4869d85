package router_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"rair/internal/arbiter"
	"rair/internal/harness"
	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/topology"
)

// refMesh is the network's executable specification: a reference router
// and NI per node (reference_test.go), wired by naive wires, every wire
// shifted and every router and NI ticked every cycle. Its shape is the
// textbook cycle loop: no shards, no wake bitmaps, no slabs, no history
// ring.
type refMesh struct {
	routers []*router.RefRouter
	nis     []*router.RefNI
	links   []refLink // mesh links, then each node's injection and ejection link
	wires   map[[2]router.LinkEnd]*router.RefWire
	// next[id][d] is the router id's link in direction d leads to, -1 where
	// none is wired (a mesh or tile edge).
	next [][topology.NumDirs]int
	// occ is DBAR's view kept naively: occ[t%len(occ)][id][d] is router
	// id's InPortOccupancy(d) at the end of cycle t, kept for the last
	// lag = max(W,H)−1 cycles, the longest path a router reads, and the
	// cycle just ended, so the view stays whole between ticks.
	occ [][][topology.NumDirs]int
	lag int
	now int64
}

type refLink struct {
	src, dst router.LinkEnd
	w        *router.RefWire
}

func newRefMesh(c lockstepCase, onEject func(*msg.Packet, int64)) *refMesh {
	mesh := c.regions.Mesh()
	m := &refMesh{
		wires: map[[2]router.LinkEnd]*router.RefWire{},
		next:  make([][topology.NumDirs]int, mesh.N()),
		occ:   make([][][topology.NumDirs]int, max(mesh.W, mesh.H)),
		lag:   max(mesh.W, mesh.H) - 1,
	}
	for t := range m.occ {
		m.occ[t] = make([][topology.NumDirs]int, mesh.N())
	}
	niCfg := c.cfg
	if c.chips != nil {
		// network.New gives every NI an injector slot for the crossbar.
		niCfg.Injectors = c.cfg.InjectorCount() + 1
	}
	for id := 0; id < mesh.N(); id++ {
		r := router.NewRefRouter(c.cfg, id, c.regions.AppAt(id), mesh, c.alg, c.sel, c.pol)
		r.SetPathOccupancy(func(d topology.Dir, hops int) int { return m.pathOccupancy(id, d, hops) })
		m.routers = append(m.routers, r)
		m.nis = append(m.nis, router.NewRefNI(niCfg, c.regions, onEject))
	}
	connect := func(src, dst router.LinkEnd) {
		w := router.NewRefWire(c.cfg.LinkLatency)
		if src.NI {
			m.nis[src.Node].ConnectInjection(w)
		} else {
			m.routers[src.Node].ConnectOut(src.Dir, w)
		}
		if !dst.NI {
			m.routers[dst.Node].ConnectIn(dst.Dir, w)
		}
		m.links = append(m.links, refLink{src, dst, w})
		m.wires[[2]router.LinkEnd{src, dst}] = w
	}
	for id := 0; id < mesh.N(); id++ {
		for d := range m.next[id] {
			m.next[id][d] = -1
			nb := mesh.Neighbor(id, topology.Dir(d))
			if nb >= 0 && (c.chips == nil || c.chips.SameChip(id, nb)) {
				connect(router.LinkEnd{Node: id, Dir: topology.Dir(d)}, router.LinkEnd{Node: nb, Dir: topology.Dir(d).Opposite()})
				m.next[id][d] = nb
			}
		}
	}
	for id := 0; id < mesh.N(); id++ {
		port, ni := router.LinkEnd{Node: id, Dir: topology.Local}, router.LinkEnd{Node: id, NI: true}
		connect(ni, port)
		connect(port, ni)
	}
	return m
}

// pathOccupancy is router id's DBAR view in the current cycle t: the sum,
// over k below min(hops, max(W,H)−1), of the occupancy the router k+1 hops
// away in d showed at the end of cycle t−1−k — zero before cycle 0, and
// nothing past an unwired link.
func (m *refMesh) pathOccupancy(id int, d topology.Dir, hops int) int {
	sum := 0
	for k := 0; k < min(hops, m.lag); k++ {
		if id = m.next[id][d]; id < 0 {
			break
		}
		if t := m.now - 1 - int64(k); t >= 0 {
			sum += m.occ[t%int64(len(m.occ))][id][d]
		}
	}
	return sum
}

// tick is one cycle: every wire shifts and delivers (ejection links last,
// in node order: the order the network replays ejections in), then every
// router and NI ticks, then every router's occupancy is recorded.
func (m *refMesh) tick(now int64) {
	m.now = now
	for _, l := range m.links {
		if f, ok := l.w.ShiftFlits(); ok {
			if l.dst.NI {
				m.nis[l.dst.Node].DeliverFlit(f, now)
			} else {
				m.routers[l.dst.Node].DeliverFlit(l.dst.Dir, f)
			}
		}
		if vc, ok := l.w.ShiftCredits(); ok {
			if l.src.NI {
				m.nis[l.src.Node].DeliverCredit(vc)
			} else {
				m.routers[l.src.Node].DeliverCredit(l.src.Dir, vc)
			}
		}
	}
	for i := range m.routers {
		m.routers[i].Tick(now)
		m.nis[i].Tick(now)
	}
	rec := m.occ[now%int64(len(m.occ))]
	for id, r := range m.routers {
		for d := topology.North; d < topology.NumDirs; d++ {
			rec[id][d] = r.InPortOccupancy(d)
		}
	}
}

// drained reports whether every wire of the reference is empty: no flit
// and no credit in flight.
func (m *refMesh) drained() bool {
	for _, l := range m.links {
		if flits, credit := l.w.InFlight(nil); len(flits) > 0 || credit >= 0 {
			return false
		}
	}
	return true
}

// onWire is a flit as the lockstep compares it: packets are copies, so
// they are named by application and ID.
type onWire struct {
	App     int
	ID      uint64
	Seq, VC int
	Hops    int
	Type    msg.FlitType
}

// wireView appends the view of flits to v[:0].
func wireView(v []onWire, flits []msg.Flit) []onWire {
	v = v[:0]
	for _, f := range flits {
		v = append(v, onWire{f.Pkt.App, f.Pkt.ID, f.Seq, f.VC, f.Pkt.Hops, f.Type})
	}
	return v
}

// ejection is one delivered packet as the lockstep compares it.
type ejection struct {
	App        int
	ID         uint64
	Cycle      int64
	InjectedAt int64
	Hops       int
}

// lockstepInput is FuzzNetworkLockstep's input: one byte per axis, in
// field order. A missing byte reads zero, and every byte decodes to a
// valid case (pick); the corpus writes each axis as the value it decodes
// to.
type lockstepInput struct {
	W, H         uint8 // mesh sides, 2–8 (the chiplet quad is 8×8)
	Layout       uint8 // layoutSingle … layoutChiplets
	GridX, GridY uint8 // layoutGrid's columns and rows, 1–min(3, side)
	Classes      uint8 // 1–2
	AdaptiveVCs  uint8 // 1–4 per class, beside one escape VC
	GlobalVCs    uint8 // 0–AdaptiveVCs
	Depth        uint8 // 1–6 flits per VC
	LinkLatency  uint8 // 1–3 cycles
	Scheme       uint8 // a row of harness.SchemeNames(): its policy and selection
	Alg          uint8 // algXY, algMinAdaptive, algWestFirst (LBDR on the chiplet quad)
	DBAR         uint8 // 1: DBAR selection whatever the row's
	Packets      uint8 // packetsShortLong, packets1to8, packetsLong
	Workers      uint8 // 1–3 engine shards
	Rate         uint8 // chance a node injects a packet in a cycle, 1–16 % (‰ with packetsLong)
	Cycles       uint8 // injection cycles, in hundreds, 1–10
	MixApps      uint8 // 1: half the packets carry a random application
	Seed         uint8
}

const (
	layoutSingle = iota
	layoutHalves
	layoutQuadrants
	layoutSixGrid
	layoutGrid
	layoutChiplets // harness.ChipletQuad's 2×2 tiles of 4×4, one region each, under LBDR
	numLayouts
)

const (
	algXY = iota
	algMinAdaptive
	algWestFirst
	numAlgs
)

const (
	packetsShortLong = iota // msg.ShortPacketFlits or msg.LongPacketFlits
	packets1to8
	packetsLong // 70–90 flits into 80-flit VCs, at a tenth of the rate: a buffered run outgrows 64 flits
	numPackets
)

// pick decodes an axis byte into [lo, hi]: a value in range stands for
// itself, any other wraps.
func pick(b uint8, lo, hi int) int {
	if v := int(b); v >= lo && v <= hi {
		return v
	}
	return lo + int(b)%(hi-lo+1)
}

// decodeInput and encode convert between an input and its bytes.
func decodeInput(data []byte) (in lockstepInput) {
	buf := make([]byte, binary.Size(in))
	copy(buf, data)
	// Reading a struct of bytes from a buffer of its size cannot fail.
	_ = binary.Read(bytes.NewReader(buf), binary.LittleEndian, &in)
	return in
}

func (in lockstepInput) encode() []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, in)
	return buf.Bytes()
}

// span is lo, lo+1, …, hi.
func span(lo, hi int) (s []int) {
	for v := lo; v <= hi; v++ {
		s = append(s, v)
	}
	return s
}

// schemeIndex is the Scheme byte of the harness row called name.
func schemeIndex(name string) uint8 { return uint8(slices.Index(harness.SchemeNames(), name)) }

// lockstepCase is one run of the lockstep: the network's parameters and its
// traffic. Traffic stays on the source's tile when chips is set: the
// crossbar between tiles is not modelled by the reference.
type lockstepCase struct {
	cfg     router.Config
	regions *region.Map
	chips   *topology.Chiplets // nil: a plain mesh
	alg     routing.Algorithm
	sel     routing.Selector
	pol     policy.Spec
	workers int
	seed    int64
	rate    int   // a node injects a packet in a cycle with chance rate/per
	per     int   // 100, or 1000 with packetsLong
	sizes   []int // packet sizes, drawn uniformly
	mixApps bool  // half the packets carry a random application
	cycles  int64 // injection stops after this many
}

func (in lockstepInput) build() lockstepCase {
	c := lockstepCase{
		cfg: router.Config{Classes: pick(in.Classes, 1, 2), AdaptiveVCs: pick(in.AdaptiveVCs, 1, 4), EscapeVCs: 1,
			Depth: pick(in.Depth, 1, 6), LinkLatency: pick(in.LinkLatency, 1, 3)},
		workers: pick(in.Workers, 1, 3), seed: int64(in.Seed), rate: pick(in.Rate, 1, 16), per: 100,
		sizes:   []int{msg.ShortPacketFlits, msg.LongPacketFlits},
		mixApps: in.MixApps%2 == 1, cycles: 100 * int64(pick(in.Cycles, 1, 10)),
	}
	c.cfg.GlobalVCs = pick(in.GlobalVCs, 0, c.cfg.AdaptiveVCs)
	switch pick(in.Packets, 0, numPackets-1) {
	case packets1to8:
		c.sizes = span(1, 8)
	case packetsLong:
		c.sizes, c.cfg.Depth, c.per = span(70, 90), 80, 1000
	}
	mesh := topology.NewMesh(pick(in.W, 2, 8), pick(in.H, 2, 8))
	switch pick(in.Layout, 0, numLayouts-1) {
	case layoutSingle:
		c.regions = region.Single(mesh)
	case layoutHalves:
		c.regions = region.Halves(mesh)
	case layoutQuadrants:
		c.regions = region.Quadrants(mesh)
	case layoutSixGrid:
		var err error
		if c.regions, err = region.FromRects(mesh, region.SixGridRects(mesh)); err != nil {
			c.regions = region.Single(mesh) // 2 or 4 columns leave a block empty
		}
	case layoutGrid:
		c.regions = region.Grid(mesh, pick(in.GridX, 1, min(3, mesh.W)), pick(in.GridY, 1, min(3, mesh.H)))
	case layoutChiplets:
		c.chips = harness.ChipletQuad()
		c.regions, mesh = harness.ChipletRegions(c.chips), c.chips.Mesh()
	}
	c.alg = [numAlgs]routing.Algorithm{routing.XY{Mesh: mesh}, routing.MinimalAdaptive{Mesh: mesh},
		routing.WestFirst{Mesh: mesh}}[pick(in.Alg, 0, numAlgs-1)]
	if c.chips != nil {
		// LBDR keeps each packet on its tile's region.
		corners := mesh.Corners()
		lbdr, err := routing.NewLBDR(c.regions, corners[:])
		if err != nil {
			panic(err) // the quad's tiles are rectangles
		}
		c.alg = lbdr
	}
	names := harness.SchemeNames()
	s := harness.SchemeAs(names[pick(in.Scheme, 0, len(names)-1)], "")
	if in.DBAR%2 == 1 {
		s.Selector = harness.SelDBAR
	}
	c.pol, c.sel = s.Policy, s.Sel(c.regions, c.cfg)
	return c
}

// lockstepCell is a named entry of the corpus.
type lockstepCell struct {
	name string
	in   lockstepInput
}

// table1 is Table 1's router (one class) under RA_RAIR with minimal
// adaptive routing, at 8 % load for 1000 cycles.
var table1 = lockstepInput{Classes: 1, AdaptiveVCs: 4, GlobalVCs: 2, Depth: 5, LinkLatency: 2,
	Scheme: schemeIndex("RA_RAIR"), Alg: algMinAdaptive, Rate: 8, Cycles: 10}

// networkCells are the network's cells. Every value of every axis the
// network wires differently is in at least one: each harness scheme row,
// each registry layout, XY, minimal adaptive, West-First and LBDR routing,
// local and DBAR selection, one and two message classes, a plain mesh and
// chiplet tiles, and 1, 2 and 3 workers. Each is seeded by its mesh width.
func networkCells() []lockstepCell {
	var cells []lockstepCell
	add := func(name string, in lockstepInput, workers ...uint8) {
		for _, in.Workers = range workers {
			cells = append(cells, lockstepCell{fmt.Sprintf("%s/workers=%d", name, in.Workers), in})
		}
	}
	at := func(w, h, layout uint8) lockstepInput {
		in := table1
		in.W, in.H, in.Layout, in.Seed = w, h, layout, w
		return in
	}
	// RA_RAIR with local selection under each deterministic and adaptive
	// routing algorithm, on quadrants.
	for _, size := range []uint8{4, 8} {
		for name, alg := range map[string]uint8{"XY": algXY, "MinAdaptive": algMinAdaptive, "WestFirst": algWestFirst} {
			in := at(size, size, layoutQuadrants)
			in.Alg = alg
			add(fmt.Sprintf("%dx%d/%s", size, size, name), in, 1, 2)
		}
	}
	// Every row of the scheme table, with its own selection.
	for i, name := range harness.SchemeNames() {
		in := at(4, 4, layoutQuadrants)
		in.Scheme = uint8(i)
		add("scheme/"+name, in, 1, 2)
	}
	// Every layout, under West-First with DBAR's region-clipped paths.
	for name, layout := range map[string]uint8{
		"single": layoutSingle, "halves": layoutHalves, "quadrants": layoutQuadrants, "sixgrid": layoutSixGrid,
	} {
		in := at(8, 8, layout)
		in.Alg, in.DBAR = algWestFirst, 1
		add("layout/"+name, in, 2)
	}
	// A non-square mesh whose shard boundaries fall mid-row (2 workers) and
	// on rows (3 workers), under round-robin DBAR.
	in := at(5, 3, layoutSingle)
	in.Scheme = schemeIndex("RA_DBAR")
	add("5x3/DBAR", in, 2, 3)
	// Requests and replies on disjoint VC classes.
	in = at(4, 4, layoutQuadrants)
	in.Classes = 2
	add("4x4/classes2", in, 2)
	// The chiplet quad: unwired tile edges, the crossbar's injector slot,
	// and LBDR.
	in = at(8, 8, layoutChiplets)
	in.DBAR = 1
	add("chiplet-quad/LBDR-DBAR", in, 2, 3)
	return cells
}

// routerCells are the router's cells, on the 3×3 quadrant mesh, whose
// centre router has a neighbour on every port: six policies × six router
// configurations × three routing algorithms, with 1–8-flit packets half of
// which carry a random application, plus one cell of 70–90-flit packets
// into 80-flit VCs.
func routerCells() []lockstepCell {
	base := table1
	base.W, base.H, base.Layout, base.Packets, base.Workers, base.Cycles, base.MixApps, base.Seed =
		3, 3, layoutQuadrants, packets1to8, 1, 3, 1, 1
	policies := map[string]string{"RO_RR": "RO_RR", "RO_Rank": "RO_Rank", "RA_RAIR": "RA_RAIR",
		"RAIR_VA": "RAIR_VA", "NativeH": "RAIR_NativeH", "ForeignH": "RAIR_ForeignH"}
	configs := map[string]func(*lockstepInput){
		"table1":    func(*lockstepInput) {},
		"classes2":  func(in *lockstepInput) { in.Classes = 2 },
		"oneVC":     func(in *lockstepInput) { in.AdaptiveVCs, in.GlobalVCs = 1, 0 },
		"global0":   func(in *lockstepInput) { in.GlobalVCs = 0 },
		"allGlobal": func(in *lockstepInput) { in.GlobalVCs = in.AdaptiveVCs },
		"latency1":  func(in *lockstepInput) { in.LinkLatency = 1 },
	}
	algs := map[string]uint8{"MinAdaptive": algMinAdaptive, "XY": algXY, "WestFirst": algWestFirst}
	var cells []lockstepCell
	for pn, scheme := range policies {
		for cn, edit := range configs {
			for an, alg := range algs {
				in := base
				in.Scheme, in.Alg = schemeIndex(scheme), alg
				edit(&in)
				cells = append(cells, lockstepCell{pn + "/" + cn + "/" + an, in})
			}
		}
	}
	long := base
	long.Packets, long.Rate, long.Cycles = packetsLong, 16, 10
	return append(cells, lockstepCell{"RA_RAIR/long/MinAdaptive", long})
}

// configInputs are the corners of the configuration space the cells leave
// at Table 1's values, FuzzNetworkLockstep's seeds in a plain go test: the
// smallest and largest meshes, region grids, one- to six-flit buffers,
// three-cycle links, one to three adaptive VCs with every global share.
var configInputs = []lockstepInput{
	{W: 2, H: 2, Layout: layoutSingle, Classes: 2, AdaptiveVCs: 1, GlobalVCs: 1, Depth: 1, LinkLatency: 3,
		Scheme: schemeIndex("RO_RR"), Alg: algXY, Workers: 1, Rate: 5, Cycles: 6, Seed: 1},
	{W: 7, H: 7, Layout: layoutGrid, GridX: 3, GridY: 3, Classes: 2, AdaptiveVCs: 3, GlobalVCs: 3, Depth: 6, LinkLatency: 1,
		Scheme: schemeIndex("RAIR_NativeH"), Alg: algWestFirst, DBAR: 1, Workers: 3, Rate: 5, Cycles: 6, Seed: 2},
	{W: 2, H: 7, Layout: layoutHalves, Classes: 1, AdaptiveVCs: 2, GlobalVCs: 1, Depth: 2, LinkLatency: 3,
		Scheme: schemeIndex("RO_Rank"), Alg: algMinAdaptive, DBAR: 1, Packets: packets1to8, Workers: 2, Rate: 5, Cycles: 6, MixApps: 1, Seed: 3},
	{W: 7, H: 2, Layout: layoutGrid, GridX: 2, GridY: 2, Classes: 2, AdaptiveVCs: 1, GlobalVCs: 0, Depth: 3, LinkLatency: 2,
		Scheme: schemeIndex("RAIR_ForeignH"), Alg: algXY, Workers: 2, Rate: 5, Cycles: 6, Seed: 4},
	{W: 5, H: 6, Layout: layoutSixGrid, Classes: 1, AdaptiveVCs: 3, GlobalVCs: 2, Depth: 4, LinkLatency: 3,
		Scheme: schemeIndex("RAIR_VA"), Alg: algMinAdaptive, Packets: packets1to8, Workers: 1, Rate: 5, Cycles: 6, MixApps: 1, Seed: 5},
	{W: 6, H: 5, Layout: layoutGrid, GridX: 3, GridY: 1, Classes: 1, AdaptiveVCs: 2, GlobalVCs: 0, Depth: 1, LinkLatency: 1,
		Scheme: schemeIndex("RA_RAIR"), Alg: algWestFirst, DBAR: 1, Workers: 3, Rate: 5, Cycles: 6, Seed: 6},
}

// drainBound is how many cycles after injection stops both sides get to
// drain.
const drainBound = 20000

// lockstep is one case: the network and its reference, the ejections each
// made this cycle, and compare's buffers and tallies.
type lockstep struct {
	c                lockstepCase
	n                *network.Network
	ref              *refMesh
	got, want        []ejection
	delivered        []bool // by packet ID
	ejected          int    // packets, over the run
	flips            int    // DPA transitions, over every router and the run
	nativeHigh       []bool
	err              error // the first ejection that failed an end check
	flits, refFlits  []msg.Flit
	gotView, refView []onWire
	arbs, refArbs    []arbiter.Prioritized
}

func newLockstep(c lockstepCase) *lockstep {
	mesh := c.regions.Mesh()
	ls := &lockstep{c: c, delivered: []bool{false}, nativeHigh: make([]bool, mesh.N())}
	ls.n = network.New(network.Params{
		Router: c.cfg, Regions: c.regions, Alg: c.alg, Sel: c.sel, Policy: c.pol,
		// The checker only lends its view of the components and wires:
		// its audits stay off, so the comparison alone is the oracle.
		Workers: c.workers, Chiplets: c.chips, Check: &invariant.Config{Every: math.MaxInt64, Watchdog: -1},
		OnEject: func(p *msg.Packet, now int64) {
			ls.got = append(ls.got, ejection{p.App, p.ID, now, p.InjectedAt, p.Hops})
			switch {
			case ls.err != nil:
			case ls.delivered[p.ID]:
				ls.err = fmt.Errorf("cycle %d: packet %d ejected twice", now, p.ID)
			case p.Hops != mesh.Distance(p.Src, p.Dst)+1:
				ls.err = fmt.Errorf("cycle %d: packet %d took %d hops from %d to %d", now, p.ID, p.Hops, p.Src, p.Dst)
			}
			ls.delivered[p.ID] = true
		},
	})
	ls.ref = newRefMesh(c, func(p *msg.Packet, now int64) {
		ls.want = append(ls.want, ejection{p.App, p.ID, now, p.InjectedAt, p.Hops})
	})
	return ls
}

// run drives both sides through the same injections for the case's cycles
// and then until both have drained, comparing them after every cycle and
// calling between (when set) after each comparison; drained, every packet
// must have been ejected exactly once, over a minimal route.
func (ls *lockstep) run(between func(now int64)) error {
	defer ls.n.Close()
	c := ls.c
	rng := rand.New(rand.NewSource(c.seed))
	mesh := c.regions.Mesh()
	// Each source's destinations: every other node, or its tile's.
	peers := make([][]int, mesh.N())
	for src := range peers {
		for dst := 0; dst < mesh.N(); dst++ {
			if dst != src && (c.chips == nil || c.chips.SameChip(src, dst)) {
				peers[src] = append(peers[src], dst)
			}
		}
	}
	var id uint64
	for now := int64(0); ; now++ {
		switch {
		case now < c.cycles:
			for src := range peers {
				if rng.Intn(c.per) >= c.rate {
					continue
				}
				dst := peers[src][rng.Intn(len(peers[src]))]
				id++
				size := c.sizes[rng.Intn(len(c.sizes))]
				class := msg.ClassRequest
				if c.cfg.Classes > 1 {
					class = msg.Class(rng.Intn(c.cfg.Classes))
				}
				app := c.regions.AppAt(src)
				if c.mixApps && rng.Intn(2) == 0 {
					app = rng.Intn(c.regions.NumApps())
				}
				p := msg.Packet{ID: id, App: app, Src: src, Dst: dst, Size: size, Class: class}
				q := p
				ls.n.Inject(&p, now)
				ls.ref.nis[src].Inject(&q, now)
				ls.delivered = append(ls.delivered, false)
			}
		case ls.n.Drained() && ls.ref.drained():
			if ls.ejected != int(id) {
				return fmt.Errorf("cycle %d: drained with %d of %d packets ejected", now, ls.ejected, id)
			}
			return nil
		case now >= c.cycles+drainBound:
			return fmt.Errorf("cycle %d: %d packets still in flight %d cycles after injection stopped",
				now, ls.n.InFlight(), drainBound)
		}
		ls.n.Tick(now)
		ls.ref.tick(now)
		if err := ls.compare(now); err != nil {
			return err
		}
		if between != nil {
			between(now)
		}
	}
}

// compare holds every wire of the network (read through the invariant
// checker, which walks the senders' slab handles), the cycle's ejections
// and every router's state to the reference's.
func (ls *lockstep) compare(now int64) error {
	if ls.err != nil {
		return ls.err
	}
	if !slices.Equal(ls.got, ls.want) {
		return fmt.Errorf("cycle %d: the network ejects %+v, the reference %+v", now, ls.got, ls.want)
	}
	ls.ejected += len(ls.got)
	ls.got, ls.want = ls.got[:0], ls.want[:0]
	var err error
	seen := 0
	ls.n.Checker().EachLink(func(src, dst router.LinkEnd, fw router.FlitWire, credit int) {
		seen++
		ls.flits = ls.flits[:0]
		fw.Each(func(f msg.Flit) { ls.flits = append(ls.flits, f) })
		w := ls.ref.wires[[2]router.LinkEnd{src, dst}]
		switch {
		case err != nil:
		case w == nil:
			err = fmt.Errorf("cycle %d: the network wires %v>%v, the reference does not", now, src, dst)
		default:
			var refCredit int
			ls.refFlits, refCredit = w.InFlight(ls.refFlits[:0])
			ls.gotView, ls.refView = wireView(ls.gotView, ls.flits), wireView(ls.refView, ls.refFlits)
			if g, r := ls.gotView, ls.refView; !slices.Equal(g, r) || credit != refCredit {
				err = fmt.Errorf("cycle %d: link %v>%v carries flits %+v and credit %d, the reference %+v and %d",
					now, src, dst, g, credit, r, refCredit)
			}
		}
	})
	if err == nil && seen != len(ls.ref.links) {
		err = fmt.Errorf("cycle %d: the network has %d links, the reference %d", now, seen, len(ls.ref.links))
	}
	if err == nil {
		err = ls.compareRouters(now)
	}
	if err == nil && routing.ConsumesCongestion(ls.c.sel) {
		err = ls.compareView(now)
	}
	return err
}

// compareRouters holds every router's DPA registers OVC_n and OVC_f, its
// DPA mode and every arbiter's round-robin pointer (SA_in, SA_out, VA_out)
// to the reference's.
func (ls *lockstep) compareRouters(now int64) error {
	for id, r := range ls.n.Checker().Routers() {
		ref := ls.ref.routers[id]
		n, f := r.OccupancyByKind()
		refN, refF := ref.OccupancyByKind()
		if nh, refNH := r.NativeHigh(), ref.NativeHigh(); n != refN || f != refF || nh != refNH {
			return fmt.Errorf("cycle %d: router %d holds OVC_n %d and OVC_f %d, native high %v; the reference %d, %d, %v",
				now, id, n, f, nh, refN, refF, refNH)
		} else if nh != ls.nativeHigh[id] {
			ls.nativeHigh[id] = nh
			ls.flips++
		}
		ls.arbs, ls.refArbs = r.Arbiters(ls.arbs[:0]), ref.Arbiters(ls.refArbs[:0])
		if !slices.Equal(ls.arbs, ls.refArbs) {
			return fmt.Errorf("cycle %d: router %d leaves its arbiters %v, the reference %v", now, id, ls.arbs, ls.refArbs)
		}
	}
	return nil
}

// compareView holds every router's DBAR view, along every direction and
// over every path length up to max(W,H)−1, to the reference's, so an error
// shows even where no selection reads it.
func (ls *lockstep) compareView(now int64) error {
	mesh := ls.c.regions.Mesh()
	for id, r := range ls.n.Checker().Routers() {
		for d := topology.North; d < topology.NumDirs; d++ {
			for hops := 1; hops < max(mesh.W, mesh.H); hops++ {
				if got, want := r.PathOccupancy(d, hops), ls.ref.pathOccupancy(id, d, hops); got != want {
					return fmt.Errorf("cycle %d: router %d sees %d along %v over %d hops, the reference %d",
						now, id, got, d, hops, want)
				}
			}
		}
	}
	return nil
}

// TestNetworkLockstep is the network's oracle: network.New (wire slabs,
// dirty-wire and armed-component sweeps, shards, DBAR's occupancy history,
// chiplet tile wiring) against refMesh, the reference routers and NIs on
// naive wires with a naive record of every router's occupancy, on every
// network cell. Every cycle every wire's flits (with their packets' hop
// counts) and credit must match, and so must the cycle's ejections
// (application, ID, cycle, injection cycle, hops), in order, every
// router's DPA registers, DPA mode and arbiter pointers, and in the DBAR
// cells every router's view. The ejection count guards against a vacuous
// pass.
func TestNetworkLockstep(t *testing.T) {
	for _, c := range networkCells() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if ls := runCase(t, c.in); ls.ejected < 100 {
				t.Fatalf("too quiet: %d packets ejected", ls.ejected)
			}
		})
	}
}

// TestReferenceLockstep is the same oracle on the router cells: masks,
// stage counters, SoA slabs and buffered runs under every policy and
// router configuration. The totals guard against a vacuous pass: packets
// must be ejected and DPA must flip.
func TestReferenceLockstep(t *testing.T) {
	var ejected, flips atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for _, c := range routerCells() {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				ls := runCase(t, c.in)
				ejected.Add(int64(ls.ejected))
				flips.Add(int64(ls.flips))
			})
		}
	})
	if ejected.Load() == 0 || flips.Load() == 0 {
		t.Fatalf("runs too quiet: %d packets ejected, %d DPA flips", ejected.Load(), flips.Load())
	}
}

// FuzzNetworkLockstep runs the lockstep, with its end checks, on any case
// the input decodes to. Under -fuzz every cell seeds the corpus; a plain
// go test runs configInputs here, and the cells under their names in
// TestNetworkLockstep and TestReferenceLockstep.
func FuzzNetworkLockstep(f *testing.F) {
	for _, in := range configInputs {
		f.Add(in.encode())
	}
	if fz := flag.Lookup("test.fuzz"); fz != nil && fz.Value.String() != "" {
		for _, c := range append(networkCells(), routerCells()...) {
			f.Add(c.in.encode())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { runCase(t, decodeInput(data)) })
}

// runCase runs in's lockstep and fails t on its first difference or failed
// end check.
func runCase(t *testing.T, in lockstepInput) *lockstep {
	t.Helper()
	ls := newLockstep(in.build())
	if err := ls.run(nil); err != nil {
		t.Fatal(err)
	}
	return ls
}

// desyncCase is the seeded-desync table's run on the 3×3 quadrant mesh:
// RA_RAIR's router cell, on one shard (a corruption that panics must panic
// on the test's goroutine), at 4, 8 or 12 % load by seed.
func desyncCase(seed int) lockstepCase {
	in := routerCells()[0].in
	in.Scheme, in.Alg, in.Rate, in.Seed = schemeIndex("RA_RAIR"), algMinAdaptive, uint8(4+4*(seed%3)), uint8(seed)
	return in.build()
}

// TestSeededDesyncDiverges: every corruption of router.Desyncs, applied
// once between two network ticks to the first router or NI, in node order,
// whose precondition holds, must take the network out of lockstep with
// the reference, on every seed where it was applied; the over-counts must
// not. A corruption that panics the network instead (an internal
// assertion) fails the row: the comparison has to be what catches it.
func TestSeededDesyncDiverges(t *testing.T) {
	for _, d := range router.Desyncs {
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			applied := 0
			for seed := 1; seed <= 12; seed++ {
				node, at, err := desync(desyncCase(seed), d.Apply)
				switch {
				case errors.Is(err, errPanicked):
					t.Errorf("seed %d: %v", seed, err)
				case node >= 0:
					applied++
					if diverged := err != nil; diverged != d.Observable {
						t.Errorf("seed %d: diverged=%v, want %v (%v)", seed, diverged, d.Observable, err)
					} else if applied == 1 {
						t.Logf("seed %d: node %d corrupted after cycle %d: %v", seed, node, at, err)
					}
				}
			}
			if applied == 0 {
				t.Fatal("precondition never held")
			}
			t.Logf("applied on %d of 12 seeds", applied)
		})
	}
}

// errPanicked marks a run a corruption ended in a panic.
var errPanicked = errors.New("panicked instead of diverging")

// desync runs c's lockstep, applying the corruption after the first cycle
// where it applies, and returns the node and cycle it was applied at (-1:
// never) and the run's error. A panic comes back wrapping errPanicked,
// which the caller must not mistake for a divergence.
func desync(c lockstepCase, apply func(*router.Router, *router.NI) bool) (node int, at int64, err error) {
	node = -1
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	ls := newLockstep(c)
	err = ls.run(func(now int64) {
		if node >= 0 {
			return
		}
		nis := ls.n.Checker().NIs()
		for i, r := range ls.n.Checker().Routers() {
			if apply(r, nis[i]) {
				node, at = i, now
				return
			}
		}
	})
	return node, at, err
}
