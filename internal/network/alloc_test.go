package network

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/topology"
)

// TestSteadyStateTickAllocs is the zero-allocation gate for the simulator's
// hot loop: with telemetry off and a packet pool recycling ejected packets,
// a loaded 8x8 RAIR mesh must tick without touching the heap. Every
// transient the datapath needs (flit rings, arbiter scratch, ejection
// replay buffers, source queues) is either pre-sized at construction or
// reaches its high-water capacity during warmup, so a regression here means
// a new allocation crept onto the per-cycle path.
func TestSteadyStateTickAllocs(t *testing.T) {
	regions := region.Quadrants(topology.NewMesh(8, 8))
	pool := msg.NewPool()
	// Seed the freelist with more packets than the mesh can hold in
	// flight, so the measured window can never out-draw the warmup peak.
	for i := 0; i < 512; i++ {
		pool.Put(&msg.Packet{})
	}
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:     routing.LocalSelector{},
		Policy:  rairSpec,
		Recycle: pool.Put,
	})
	rng := sim.NewRNG(1)
	nodes := n.Mesh().N()
	var id uint64
	var c int64
	injectPooled := func() {
		for node := 0; node < nodes; node++ {
			if !rng.Bool(0.05) {
				continue
			}
			dst := rng.Intn(nodes)
			if dst == node {
				continue
			}
			id++
			p := pool.Get()
			p.ID, p.App, p.Src, p.Dst = id, regions.AppAt(node), node, dst
			p.Size = 1 + 4*rng.Intn(2)
			p.Class = msg.ClassRequest
			n.Inject(p, c)
		}
	}
	for ; c < 2000; c++ {
		injectPooled()
		n.Tick(c)
	}
	allocs := testing.AllocsPerRun(200, func() {
		injectPooled()
		n.Tick(c)
		c++
	})
	if allocs != 0 {
		t.Errorf("steady-state tick allocated %.1f objects/op, want 0", allocs)
	}
}

// TestDrainedNetworkTickAllocs gates the quiescent path itself: once the
// network has drained, every shard's wake bitmaps are empty and a tick must
// not only skip all components but also touch the heap zero times, at one
// worker and at two (a bit left armed by one shard's sweep shows only on
// that shard). It also catches a work counter one too high, or a bit armed
// with no work, that the lockstep cannot see (a needless tick is a no-op).
// Complements TestSteadyStateTickAllocs (the loaded-path gate).
func TestDrainedNetworkTickAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n, _ := buildWorkers(t, workers, localSel)
			rng := sim.NewRNG(1)
			mesh := n.Mesh()
			var c int64
			for ; c < 200; c++ {
				src, dst := rng.Intn(mesh.N()), rng.Intn(mesh.N())
				if src != dst {
					n.Inject(&msg.Packet{
						ID: uint64(c + 1), App: n.params.Regions.AppAt(src), Src: src, Dst: dst,
						Size: 2, Class: msg.ClassRequest,
					}, c)
				}
				n.Tick(c)
			}
			for ; c < 100000 && !n.Drained(); c++ {
				n.Tick(c)
			}
			n.CheckDrained()
			for _, sh := range n.eng.shards {
				if r, ni := armed(sh.soa.ArmedR), armed(sh.soa.ArmedN); r != 0 || ni != 0 {
					t.Fatalf("drained network still has %d routers / %d NIs armed on shard %d", r, ni, sh.idx)
				}
			}
			if avg := testing.AllocsPerRun(100, func() {
				n.Tick(c)
				c++
			}); avg != 0 {
				t.Fatalf("quiescent tick allocates %.1f times per cycle, want 0", avg)
			}
		})
	}
}

// armed counts the set bits of a wake bitmap.
func armed(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// heapPerRouter builds an edge×edge quadrant mesh and returns the heap bytes
// network.New retains per router (routers, NIs, links, stores, bindings),
// with local selection, or with DBAR's when dbar is set.
func heapPerRouter(edge int, dbar bool) float64 {
	regions := region.Quadrants(topology.NewMesh(edge, edge))
	var sel routing.Selector = routing.LocalSelector{}
	if dbar {
		sel = dbarSel(regions)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:     sel,
		Policy:  rairSpec,
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(regions.Mesh().N())
}

// TestPerRouterFootprint is the guard against per-router state that grows
// with the mesh (the per-destination route cache cost 48 B × N per router:
// 48 KB each at 32×32). A router's share of the built network — 3.2 to
// 3.5 KB with the default single-class configuration, about 0.4 KB of it
// the node's share of the wire slabs — must not grow from 8×8 to 32×32 and
// must stay under an absolute budget: the measured 3,260 B at 32×32 plus
// 5 % (3,860 B while every Router and NI copied what its shard store now
// holds once). The first build of the test retains about 0.6 KB per
// router less than the builds after it (at every repetition under -count,
// not only the first of the process), so a throwaway build comes first and
// every measured build is a warm one. Each figure is the least of three builds:
// a goroutine of a concurrent test package can allocate between the two
// heap readings of one build (the DBAR row read 156 B instead of 70 B once
// in 15 beside a -race run), but it does not lower a reading.
//
// DBAR's congestion view adds a history of max(W,H)−1 cycles per router:
// 71 B at 8×8, where the relay it replaced measured 743 B (704 B of rows
// and their headers). Its budget is a quarter of the relay's rows, 176 B.
func TestPerRouterFootprint(t *testing.T) {
	heapPerRouter(8, false)
	least := func(edge int, dbar bool) float64 {
		return min(heapPerRouter(edge, dbar), heapPerRouter(edge, dbar), heapPerRouter(edge, dbar))
	}
	small, large := least(8, false), least(32, false)
	t.Logf("heap per router: %.0f B at 8x8, %.0f B at 32x32", small, large)
	if large > 1.05*small {
		t.Errorf("heap per router grows with the mesh: %.0f B at 32x32 vs %.0f B at 8x8 (limit 1.05x)", large, small)
	}
	const budget = 3423
	if large > budget {
		t.Errorf("heap per router at 32x32 is %.0f B, budget %d B", large, budget)
	}
	dbar := least(8, true) - small
	t.Logf("DBAR's view per router at 8x8: %.0f B", dbar)
	const dbarBudget = 176
	if dbar > dbarBudget {
		t.Errorf("DBAR's view costs %.0f B per router at 8x8, budget %d B", dbar, dbarBudget)
	}
}
