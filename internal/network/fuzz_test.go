package network

import (
	"testing"
	"testing/quick"

	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/topology"
)

// TestConfigFuzz drives randomized (but reproducible) combinations of mesh
// shape, VC configuration, region layout, policy and routing through a
// short load burst, checking the simulator's global invariants: every
// packet delivered exactly once, minimal hop counts, full drain, and no
// internal panics (credit violations, buffer overflows and misrouted flits
// all panic in the router).
func TestConfigFuzz(t *testing.T) {
	cfgCheck := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		w := 2 + rng.Intn(6)
		h := 2 + rng.Intn(6)
		mesh := topology.NewMesh(w, h)

		var regs *region.Map
		switch rng.Intn(3) {
		case 0:
			regs = region.Single(mesh)
		case 1:
			regs = region.Grid(mesh, 1+rng.Intn(2), 1+rng.Intn(2))
		default:
			regs = region.Grid(mesh, 1+rng.Intn(min(3, w)), 1+rng.Intn(min(3, h)))
		}

		cfg := router.Config{
			Classes:     1 + rng.Intn(2),
			AdaptiveVCs: 1 + rng.Intn(4),
			EscapeVCs:   1,
			Depth:       1 + rng.Intn(6),
			LinkLatency: 1 + rng.Intn(3),
		}
		cfg.GlobalVCs = rng.Intn(cfg.AdaptiveVCs + 1)

		var pf policy.Spec
		switch rng.Intn(3) {
		case 0:
			pf = policy.Spec{}
		case 1:
			pf = policy.Spec{Priority: policy.Rank, Ranks: []int{0, 1, 2, 3}, Batch: policy.BatchInterval}
		default:
			pf = policy.Spec{Priority: []policy.Priority{policy.DPA, policy.NativeH, policy.ForeignH}[rng.Intn(3)], Delta: policy.DefaultDelta}
		}

		var alg routing.Algorithm
		switch rng.Intn(3) {
		case 0:
			alg = routing.XY{Mesh: mesh}
		case 1:
			alg = routing.MinimalAdaptive{Mesh: mesh}
		default:
			alg = routing.WestFirst{Mesh: mesh}
		}
		var sel routing.Selector = routing.LocalSelector{}
		if rng.Intn(2) == 1 {
			sel = routing.DBARSelector{Mesh: mesh, Regions: regs, Depth: cfg.Depth * cfg.VCsPerPort()}
		}

		delivered := map[uint64]bool{}
		n := New(Params{
			Router: cfg, Regions: regs, Alg: alg, Sel: sel, Policy: pf,
			OnEject: func(p *msg.Packet, now int64) {
				if delivered[p.ID] {
					t.Errorf("seed %d: duplicate delivery of %v", seed, p)
				}
				delivered[p.ID] = true
				if p.Hops != mesh.Distance(p.Src, p.Dst)+1 {
					t.Errorf("seed %d: non-minimal route for %v: %d hops", seed, p, p.Hops)
				}
			},
		})

		var id uint64
		horizon := int64(1500)
		for c := int64(0); c < horizon; c++ {
			if c < 600 {
				for node := 0; node < mesh.N(); node++ {
					if !rng.Bool(0.05) {
						continue
					}
					dst := rng.Intn(mesh.N())
					if dst == node {
						continue
					}
					id++
					cls := msg.Class(rng.Intn(cfg.Classes))
					size := 1
					if rng.Bool(0.5) {
						size = 5
					}
					n.Inject(&msg.Packet{
						ID: id, App: regs.AppAt(node), Src: node, Dst: dst,
						Class: cls, Size: size,
					}, c)
				}
			}
			n.Tick(c)
			if c > 600 && n.Drained() {
				break
			}
		}
		// Allow extra drain time for tiny/deep configurations.
		for c := horizon; c < horizon+20000 && !n.Drained(); c++ {
			n.Tick(c)
		}
		if !n.Drained() {
			t.Errorf("seed %d: failed to drain (%d in flight of %d)", seed, n.InFlight(), id)
			return false
		}
		if uint64(len(delivered)) != id {
			t.Errorf("seed %d: delivered %d of %d", seed, len(delivered), id)
			return false
		}
		return true
	}
	if err := quick.Check(cfgCheck, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
