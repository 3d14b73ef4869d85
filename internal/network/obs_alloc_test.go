package network

import (
	"testing"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// TestObsOffTickAllocs is the observability layer's zero-cost-when-off
// gate: with telemetry collecting (so probes are live and windows sample)
// but attribution and engine profiling off, the steady-state tick must
// still never touch the heap. The attribution charge sites sit on the
// router's hottest paths behind cached nil-probe guards; a regression here
// means one of them started doing work while disabled.
func TestObsOffTickAllocs(t *testing.T) {
	regions := region.Quadrants(topology.NewMesh(8, 8))
	pool := msg.NewPool()
	for i := 0; i < 512; i++ {
		pool.Put(&msg.Packet{})
	}
	// WindowCap bounds the ring so sampling reaches its high-water mark
	// during warmup; Attribution stays off — that is the gate.
	tel := telemetry.NewCollector(telemetry.Config{Window: 64, WindowCap: 4})
	n := New(Params{
		Router:    router.DefaultConfig(1),
		Regions:   regions,
		Alg:       routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:       routing.LocalSelector{},
		Policy:    rairSpec,
		Recycle:   pool.Put,
		Telemetry: tel,
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
		t.Errorf("steady-state tick with telemetry on / obs off allocated %.1f objects/op, want 0", allocs)
	}
}
