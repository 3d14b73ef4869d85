package router_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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

func newRefMesh(c lockstepCell, onEject func(*msg.Packet, int64)) *refMesh {
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

// onWire is a flit as the lockstep compares it: packets are copies, so
// they are named by application and ID.
type onWire struct {
	App     int
	ID      uint64
	Seq, VC int
	Type    msg.FlitType
}

// wireView appends the view of flits to v[:0].
func wireView(v []onWire, flits []msg.Flit) []onWire {
	v = v[:0]
	for _, f := range flits {
		v = append(v, onWire{f.Pkt.App, f.Pkt.ID, f.Seq, f.VC, f.Type})
	}
	return v
}

// ejection is one delivered packet as the lockstep compares it.
type ejection struct {
	App   int
	ID    uint64
	Cycle int64
}

// lockstepCycles is each cell's run length: long enough for every cell to
// fill VCs and eject in the hundreds.
const lockstepCycles = 1000

// lockstepCell is one configuration of the matrix. Its traffic stays on the
// source's tile when chips is set: the crossbar between tiles is not
// modelled by the reference.
type lockstepCell struct {
	name    string
	cfg     router.Config
	regions *region.Map
	chips   *topology.Chiplets // nil: a plain mesh
	alg     routing.Algorithm
	sel     routing.Selector
	pol     policy.Spec
	workers int
}

// lockstepCells is the matrix. Every value of every axis is in at least one
// cell: each harness scheme row, each registry layout, XY, minimal adaptive,
// West-First and LBDR routing, local and DBAR selection, one and two
// message classes, a plain mesh and chiplet tiles, and 1, 2 and 3 workers.
func lockstepCells(t *testing.T) []lockstepCell {
	cfg := router.DefaultConfig(1)
	rair := policy.Spec{Priority: policy.DPA, Delta: policy.DefaultDelta}
	dbar := func(regions *region.Map) routing.Selector {
		return routing.DBARSelector{Mesh: regions.Mesh(), Regions: regions, Depth: cfg.Depth * cfg.VCsPerPort()}
	}
	var cells []lockstepCell
	add := func(c lockstepCell, workers ...int) {
		name := c.name
		for _, c.workers = range workers {
			c.name = fmt.Sprintf("%s/workers=%d", name, c.workers)
			cells = append(cells, c)
		}
	}
	// RA_RAIR with local selection under each deterministic and adaptive
	// routing algorithm, on quadrants.
	for _, size := range []int{4, 8} {
		mesh := topology.NewMesh(size, size)
		for name, alg := range map[string]routing.Algorithm{
			"XY":          routing.XY{Mesh: mesh},
			"MinAdaptive": routing.MinimalAdaptive{Mesh: mesh},
			"WestFirst":   routing.WestFirst{Mesh: mesh},
		} {
			add(lockstepCell{name: fmt.Sprintf("%dx%d/%s", size, size, name), cfg: cfg,
				regions: region.Quadrants(mesh), alg: alg, sel: routing.LocalSelector{}, pol: rair}, 1, 2)
		}
	}
	// Every row of the scheme table, built as the harness builds it.
	quad4 := region.Quadrants(topology.NewMesh(4, 4))
	for _, name := range harness.SchemeNames() {
		s, err := harness.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		add(lockstepCell{name: "scheme/" + name, cfg: cfg, regions: quad4,
			alg: s.Alg(quad4.Mesh()), sel: s.Sel(quad4, cfg), pol: s.Policy}, 1, 2)
	}
	// Every layout, under West-First with DBAR's region-clipped paths.
	mesh8 := topology.NewMesh(8, 8)
	for name, layout := range map[string]func(*topology.Mesh) *region.Map{
		"single": region.Single, "halves": region.Halves, "quadrants": region.Quadrants, "sixgrid": region.SixGrid,
	} {
		regions := layout(mesh8)
		add(lockstepCell{name: "layout/" + name, cfg: cfg, regions: regions,
			alg: routing.WestFirst{Mesh: mesh8}, sel: dbar(regions), pol: rair}, 2)
	}
	// A non-square mesh whose shard boundaries fall mid-row (2 workers) and
	// on rows (3 workers).
	mesh53 := topology.NewMesh(5, 3)
	single53 := region.Single(mesh53)
	add(lockstepCell{name: "5x3/DBAR", cfg: cfg, regions: single53,
		alg: routing.MinimalAdaptive{Mesh: mesh53}, sel: dbar(single53), pol: policy.Spec{}}, 2, 3)
	// Requests and replies on disjoint VC classes.
	add(lockstepCell{name: "4x4/classes2", cfg: router.DefaultConfig(2), regions: quad4,
		alg: routing.MinimalAdaptive{Mesh: quad4.Mesh()}, sel: routing.LocalSelector{}, pol: rair}, 2)
	// The chiplet quad: unwired tile edges, the crossbar's injector slot,
	// and LBDR, which keeps each packet on its tile's region.
	quad := harness.ChipletQuad()
	tiles := harness.ChipletRegions(quad)
	corners := quad.Mesh().Corners()
	lbdr, err := routing.NewLBDR(tiles, corners[:])
	if err != nil {
		t.Fatal(err)
	}
	add(lockstepCell{name: "chiplet-quad/LBDR-DBAR", cfg: cfg, regions: tiles, chips: quad,
		alg: lbdr, sel: dbar(tiles), pol: rair}, 2, 3)
	return cells
}

// lockstep is one cell: the network and its reference, the ejections each
// made this cycle, and compare's buffers.
type lockstep struct {
	cell             lockstepCell
	n                *network.Network
	ref              *refMesh
	got, want        []ejection
	ejected          int
	flits, refFlits  []msg.Flit
	gotView, refView []onWire
}

// TestNetworkLockstep is the network's oracle: network.New (wire slabs,
// dirty-wire and armed-component sweeps, shards, DBAR's occupancy history,
// chiplet tile wiring) against refMesh, the reference routers and NIs on
// naive wires with a naive record of every router's occupancy, on every
// cell of lockstepCells. Every cycle every wire's flits and credit must
// match, and so must the cycle's ejections (application, ID, cycle), in
// order, and in the DBAR cells every router's view. The ejection count
// guards against a vacuous pass.
func TestNetworkLockstep(t *testing.T) {
	for _, c := range lockstepCells(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ls := &lockstep{cell: c}
			ls.n = network.New(network.Params{
				Router: c.cfg, Regions: c.regions, Alg: c.alg, Sel: c.sel, Policy: c.pol,
				// The checker only lends its view of the wires: its
				// audits stay off, so the comparison alone is the oracle.
				Workers: c.workers, Chiplets: c.chips, Check: &invariant.Config{Every: math.MaxInt64, Watchdog: -1},
				OnEject: func(p *msg.Packet, now int64) { ls.got = append(ls.got, ejection{p.App, p.ID, now}) },
			})
			defer ls.n.Close()
			ls.ref = newRefMesh(c, func(p *msg.Packet, now int64) {
				ls.want = append(ls.want, ejection{p.App, p.ID, now})
			})
			if err := ls.run(int64(c.regions.Mesh().W)); err != nil {
				t.Fatal(err)
			}
			if ls.ejected < 100 {
				t.Fatalf("too quiet: %d packets ejected in %d cycles", ls.ejected, lockstepCycles)
			}
		})
	}
}

// run drives both sides through the same injections and compares them
// after every cycle.
func (ls *lockstep) run(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	mesh, chips := ls.cell.regions.Mesh(), ls.cell.chips
	// Each source's destinations: every other node, or its tile's.
	peers := make([][]int, mesh.N())
	for src := range peers {
		for dst := 0; dst < mesh.N(); dst++ {
			if dst != src && (chips == nil || chips.SameChip(src, dst)) {
				peers[src] = append(peers[src], dst)
			}
		}
	}
	var id uint64
	for now := int64(0); now < lockstepCycles; now++ {
		for src := range peers {
			if rng.Intn(100) >= 8 {
				continue
			}
			dst := peers[src][rng.Intn(len(peers[src]))]
			id++
			size := msg.LongPacketFlits
			if rng.Intn(2) == 0 {
				size = msg.ShortPacketFlits
			}
			class := msg.ClassRequest
			if ls.cell.cfg.Classes > 1 {
				class = msg.Class(rng.Intn(ls.cell.cfg.Classes))
			}
			p := msg.Packet{ID: id, App: ls.cell.regions.AppAt(src), Src: src, Dst: dst, Size: size, Class: class}
			q := p
			ls.n.Inject(&p, now)
			ls.ref.nis[src].Inject(&q, now)
		}
		ls.n.Tick(now)
		ls.ref.tick(now)
		if err := ls.compare(now); err != nil {
			return err
		}
	}
	return nil
}

// compare holds every wire of the network (read through the invariant
// checker, which walks the senders' slab handles) and the cycle's
// ejections to the reference's.
func (ls *lockstep) compare(now int64) error {
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
	if err == nil && routing.ConsumesCongestion(ls.cell.sel) {
		err = ls.compareView(now)
	}
	return err
}

// compareView holds every router's DBAR view, along every direction and
// over every path length up to max(W,H)−1, to the reference's, so an error
// shows even where no selection reads it.
func (ls *lockstep) compareView(now int64) error {
	mesh := ls.cell.regions.Mesh()
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
