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

// BenchmarkNetworkTick measures raw cycle throughput of a loaded 8x8 mesh
// under RAIR (the simulator's core inner loop).
func BenchmarkNetworkTick(b *testing.B) {
	regions := region.Quadrants(topology.NewMesh(8, 8))
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:     routing.LocalSelector{},
		Policy:  rairSpec,
	})
	rng := sim.NewRNG(1)
	var id uint64
	var c int64
	// Pre-load to steady state.
	for ; c < 500; c++ {
		inject(n, regions, rng, &id, c)
		n.Tick(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject(n, regions, rng, &id, c)
		n.Tick(c)
		c++
	}
}

func inject(n *Network, regions *region.Map, rng *sim.RNG, id *uint64, c int64) {
	nodes := n.Mesh().N()
	for node := 0; node < nodes; node++ {
		if !rng.Bool(0.05) {
			continue
		}
		dst := rng.Intn(nodes)
		if dst == node {
			continue
		}
		*id++
		n.Inject(&msg.Packet{ID: *id, App: regions.AppAt(node),
			Src: node, Dst: dst, Size: 1 + 4*rng.Intn(2), Class: msg.ClassRequest}, c)
	}
}

// BenchmarkTickEngine compares the serial tick path against the sharded
// engine at several worker counts on a 16x16 mesh (large enough that a shard
// amortizes its barrier cost). On a single-core host the sharded variants
// only measure coordination overhead; on multi-core they show the scaling.
func BenchmarkTickEngine(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 0}, {"workers=1", 1}, {"workers=2", 2}, {"workers=4", 4}, {"workers=8", 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			regions := region.Quadrants(topology.NewMesh(16, 16))
			n := New(Params{
				Router:  router.DefaultConfig(1),
				Regions: regions,
				Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
				Sel:     routing.LocalSelector{},
				Policy:  rairSpec,
				Workers: tc.workers,
			})
			defer n.Close()
			rng := sim.NewRNG(1)
			var id uint64
			var c int64
			for ; c < 500; c++ {
				inject(n, regions, rng, &id, c)
				n.Tick(c)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inject(n, regions, rng, &id, c)
				n.Tick(c)
				c++
			}
		})
	}
}

// BenchmarkTelemetry measures the instrumentation overhead on the loaded
// 8x8 RAIR mesh: "off" must track BenchmarkNetworkTick (nil-probe guards
// only), "on" shows the full counter + window-sampling cost.
func BenchmarkTelemetry(b *testing.B) {
	for _, tc := range []struct {
		name string
		tel  func() *telemetry.Collector
	}{
		{"off", func() *telemetry.Collector { return nil }},
		{"on", func() *telemetry.Collector {
			return telemetry.NewCollector(telemetry.Config{})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			regions := region.Quadrants(topology.NewMesh(8, 8))
			n := New(Params{
				Router:    router.DefaultConfig(1),
				Regions:   regions,
				Alg:       routing.MinimalAdaptive{Mesh: regions.Mesh()},
				Sel:       routing.LocalSelector{},
				Policy:    rairSpec,
				Telemetry: tc.tel(),
			})
			defer n.Close()
			rng := sim.NewRNG(1)
			var id uint64
			var c int64
			for ; c < 500; c++ {
				inject(n, regions, rng, &id, c)
				n.Tick(c)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inject(n, regions, rng, &id, c)
				n.Tick(c)
				c++
			}
		})
	}
}
