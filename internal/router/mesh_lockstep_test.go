package router_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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
// textbook cycle loop: no shards, no wake bitmaps, no slabs.
type refMesh struct {
	routers []*router.RefRouter
	nis     []*router.RefNI
	links   []refLink // mesh links, then each node's injection and ejection link
	wires   map[[2]router.LinkEnd]*router.RefWire
}

type refLink struct {
	src, dst router.LinkEnd
	w        *router.RefWire
}

func newRefMesh(cfg router.Config, regions *region.Map, alg routing.Algorithm, pol policy.Spec,
	onEject func(*msg.Packet, int64)) *refMesh {
	mesh := regions.Mesh()
	m := &refMesh{wires: map[[2]router.LinkEnd]*router.RefWire{}}
	for id := 0; id < mesh.N(); id++ {
		m.routers = append(m.routers, router.NewRefRouter(cfg, id, regions.AppAt(id), mesh, alg, routing.LocalSelector{}, pol))
		m.nis = append(m.nis, router.NewRefNI(cfg, regions, onEject))
	}
	connect := func(src, dst router.LinkEnd) {
		w := router.NewRefWire(cfg.LinkLatency)
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
		for d := topology.North; d < topology.NumDirs; d++ {
			if nb := mesh.Neighbor(id, d); nb >= 0 {
				connect(router.LinkEnd{Node: id, Dir: d}, router.LinkEnd{Node: nb, Dir: d.Opposite()})
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

// tick is one cycle: every wire shifts and delivers (ejection links last,
// in node order: the order the network replays ejections in), then every
// router and NI ticks.
func (m *refMesh) tick(now int64) {
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
}

// onWire is a flit as the lockstep compares it: packets are copies, so
// they are named by application and ID.
type onWire struct {
	App     int
	ID      uint64
	Seq, VC int
	Type    msg.FlitType
}

func wireView(flits []msg.Flit) []onWire {
	v := make([]onWire, len(flits))
	for i, f := range flits {
		v[i] = onWire{f.Pkt.App, f.Pkt.ID, f.Seq, f.VC, f.Type}
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

// lockstep is one cell: the network and its reference, and the ejections
// each made this cycle.
type lockstep struct {
	n         *network.Network
	ref       *refMesh
	regions   *region.Map
	got, want []ejection
	ejected   int
}

// TestNetworkLockstep is the network's oracle: network.New (wire slabs,
// dirty-wire and armed-component sweeps, shards) against refMesh, the
// reference routers and NIs on naive wires, on 4×4 and 8×8, at 1 and 2
// workers, with local selection and each of XY, minimal adaptive and
// west-first routing under RAIR. Every cycle every wire's flits and credit
// must match, and so must the cycle's ejections (application, ID, cycle),
// in order. The ejection count guards against a vacuous pass.
func TestNetworkLockstep(t *testing.T) {
	cfg := router.DefaultConfig(1)
	pol := policy.Spec{Priority: policy.DPA, Delta: policy.DefaultDelta}
	for _, size := range []int{4, 8} {
		mesh := topology.NewMesh(size, size)
		regions := region.Quadrants(mesh)
		algs := map[string]routing.Algorithm{
			"XY":          routing.XY{Mesh: mesh},
			"MinAdaptive": routing.MinimalAdaptive{Mesh: mesh},
			"WestFirst":   routing.WestFirst{Mesh: mesh},
		}
		for name, alg := range algs {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%dx%d/%s/workers=%d", size, size, name, workers), func(t *testing.T) {
					t.Parallel()
					ls := &lockstep{regions: regions}
					ls.n = network.New(network.Params{
						Router: cfg, Regions: regions, Alg: alg, Sel: routing.LocalSelector{}, Policy: pol,
						// The checker only lends its view of the wires: its
						// audits stay off, so the comparison alone is the oracle.
						Workers: workers, Check: &invariant.Config{Every: math.MaxInt64, Watchdog: -1},
						OnEject: func(p *msg.Packet, now int64) { ls.got = append(ls.got, ejection{p.App, p.ID, now}) },
					})
					defer ls.n.Close()
					ls.ref = newRefMesh(cfg, regions, alg, pol, func(p *msg.Packet, now int64) {
						ls.want = append(ls.want, ejection{p.App, p.ID, now})
					})
					if err := ls.run(int64(size)); err != nil {
						t.Fatal(err)
					}
					if ls.ejected < 100 {
						t.Fatalf("too quiet: %d packets ejected in %d cycles", ls.ejected, lockstepCycles)
					}
				})
			}
		}
	}
}

// run drives both sides through the same injections and compares them
// after every cycle.
func (ls *lockstep) run(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	nodes := ls.regions.Mesh().N()
	var id uint64
	for now := int64(0); now < lockstepCycles; now++ {
		for src := 0; src < nodes; src++ {
			if rng.Intn(100) >= 8 {
				continue
			}
			dst := rng.Intn(nodes - 1)
			if dst >= src {
				dst++
			}
			id++
			size := msg.LongPacketFlits
			if rng.Intn(2) == 0 {
				size = msg.ShortPacketFlits
			}
			p := msg.Packet{ID: id, App: ls.regions.AppAt(src), Src: src, Dst: dst, Size: size, Class: msg.ClassRequest}
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
	var flits []msg.Flit
	seen := 0
	ls.n.Checker().EachLink(func(src, dst router.LinkEnd, fw router.FlitWire, credit int) {
		seen++
		flits = flits[:0]
		fw.Each(func(f msg.Flit) { flits = append(flits, f) })
		w := ls.ref.wires[[2]router.LinkEnd{src, dst}]
		switch {
		case err != nil:
		case w == nil:
			err = fmt.Errorf("cycle %d: the network wires %v>%v, the reference does not", now, src, dst)
		default:
			refFlits, refCredit := w.InFlight()
			if g, r := wireView(flits), wireView(refFlits); !slices.Equal(g, r) || credit != refCredit {
				err = fmt.Errorf("cycle %d: link %v>%v carries flits %+v and credit %d, the reference %+v and %d",
					now, src, dst, g, credit, r, refCredit)
			}
		}
	})
	if err == nil && seen != len(ls.ref.links) {
		err = fmt.Errorf("cycle %d: the network has %d links, the reference %d", now, seen, len(ls.ref.links))
	}
	return err
}
