package network

import (
	"fmt"
	"testing"

	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/topology"
)

// buildWorkers builds an 8x8 quadrant network with the given worker count and
// selector, recording every delivered packet in order.
func buildWorkers(t testing.TB, workers int, sel func(*region.Map) routing.Selector) (*Network, *[]*msg.Packet) {
	t.Helper()
	regions := region.Quadrants(topology.NewMesh(8, 8))
	var delivered []*msg.Packet
	s := sel(regions)
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:     s,
		Policy:  policy.NewRoundRobin,
		OnEject: func(p *msg.Packet, now int64) { delivered = append(delivered, p) },
		Workers: workers,
	})
	t.Cleanup(n.Close)
	return n, &delivered
}

func localSel(*region.Map) routing.Selector { return routing.LocalSelector{} }

func dbarSel(regions *region.Map) routing.Selector {
	cfg := router.DefaultConfig(1)
	return routing.DBARSelector{Mesh: regions.Mesh(), Regions: regions, Depth: cfg.Depth * cfg.VCsPerPort()}
}

// driveRandom injects a reproducible random workload and runs to drain,
// returning a full trace of deliveries (packet identity, order, timestamps).
func driveRandom(t *testing.T, n *Network, delivered *[]*msg.Packet) []string {
	t.Helper()
	rng := sim.NewRNG(0x5eed)
	mesh := n.Mesh()
	id := uint64(0)
	var c int64
	for ; c < 600; c++ {
		for i := 0; i < 3; i++ {
			src := int(uint64(rng.Intn(mesh.N())))
			dst := int(uint64(rng.Intn(mesh.N())))
			if src == dst {
				continue
			}
			id++
			n.NI(src).Inject(&msg.Packet{
				ID: id, App: n.Regions().AppAt(src), Src: src, Dst: dst,
				Size: 1 + rng.Intn(5), Class: msg.ClassRequest,
			}, c)
		}
		n.Tick(c)
	}
	for ; c < 100000 && !n.Drained(); c++ {
		n.Tick(c)
	}
	n.CheckDrained()
	trace := make([]string, 0, len(*delivered))
	for _, p := range *delivered {
		trace = append(trace, fmt.Sprintf("%d:%d->%d@%d/%d hops=%d", p.ID, p.Src, p.Dst, p.InjectedAt, p.EjectedAt, p.Hops))
	}
	return trace
}

// TestEngineDeterminism: the sharded engine must produce a bit-identical
// delivery trace (same packets, same cycle stamps, same callback order) as
// the serial path, for any worker count, with and without DBAR propagation.
func TestEngineDeterminism(t *testing.T) {
	for _, sel := range []struct {
		name string
		mk   func(*region.Map) routing.Selector
	}{{"Local", localSel}, {"DBAR", dbarSel}} {
		t.Run(sel.name, func(t *testing.T) {
			nSerial, dSerial := buildWorkers(t, 0, sel.mk)
			ref := driveRandom(t, nSerial, dSerial)
			if len(ref) == 0 {
				t.Fatal("no packets delivered in reference run")
			}
			for _, workers := range []int{2, 3, 4, 8} {
				n, d := buildWorkers(t, workers, sel.mk)
				got := driveRandom(t, n, d)
				if len(got) != len(ref) {
					t.Fatalf("workers=%d delivered %d packets, serial %d", workers, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("workers=%d trace diverges at %d:\n serial  %s\n sharded %s", workers, i, ref[i], got[i])
					}
				}
			}
		})
	}
}

// TestEngineShardPartition: the shard ranges tile the nodes in order with no
// gap or overlap, of inverts bounds for every node, and the engine's shards
// are exactly those ranges — including node counts the shard count does not
// divide, where the boundaries are uneven.
func TestEngineShardPartition(t *testing.T) {
	for _, tc := range []struct{ nodes, workers, shards int }{
		{16, 1, 1}, {16, 2, 2}, {16, 3, 3}, {16, 5, 5}, {16, 16, 16}, {16, 64, 16},
		{9, 2, 2}, {64, 7, 7}, {15, 4, 4}, {1024, 3, 3}, {7, 0, 1},
	} {
		part := newPartition(tc.nodes, tc.workers)
		if part.s != tc.shards {
			t.Fatalf("nodes=%d workers=%d: %d shards, want %d", tc.nodes, tc.workers, part.s, tc.shards)
		}
		next := 0
		for i := 0; i < part.s; i++ {
			lo, hi := part.bounds(i)
			if lo != next || hi <= lo {
				t.Fatalf("nodes=%d workers=%d: shard %d is [%d,%d), previous ended at %d", tc.nodes, tc.workers, i, lo, hi, next)
			}
			for id := lo; id < hi; id++ {
				if got := part.of(id); got != i {
					t.Fatalf("nodes=%d workers=%d: of(%d) = %d, want %d", tc.nodes, tc.workers, id, got, i)
				}
			}
			next = hi
		}
		if next != tc.nodes {
			t.Fatalf("nodes=%d workers=%d: shards cover %d nodes", tc.nodes, tc.workers, next)
		}
		e := newEngine(topology.NewMesh(tc.nodes, 1), make([]*router.Router, tc.nodes), make([]*router.NI, tc.nodes),
			part, make([]*router.SoA, part.s))
		for i, sh := range e.shards {
			lo, hi := part.bounds(i)
			if sh.lo != lo || len(sh.routers) != hi-lo || len(sh.nis) != hi-lo || e.shardOf(lo) != sh {
				t.Fatalf("nodes=%d workers=%d: engine shard %d does not match the partition", tc.nodes, tc.workers, i)
			}
		}
		e.close()
	}
}

// TestCongestionGating: propagation runs iff the selector consumes the
// signal (or the mode forces it).
func TestCongestionGating(t *testing.T) {
	regions := mesh4()
	base := Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Policy:  policy.NewRoundRobin,
	}
	for _, tc := range []struct {
		name string
		sel  routing.Selector
		mode CongestionMode
		want bool
	}{
		{"local-auto", routing.LocalSelector{}, CongestionAuto, false},
		{"dbar-auto", dbarSel(regions), CongestionAuto, true},
		{"local-forced-on", routing.LocalSelector{}, CongestionOn, true},
		{"dbar-forced-off", dbarSel(regions), CongestionOff, false},
	} {
		p := base
		p.Sel = tc.sel
		p.Congestion = tc.mode
		if got := New(p).CongestionEnabled(); got != tc.want {
			t.Errorf("%s: CongestionEnabled() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDrainedActiveSets: Drained must go false the moment a packet is
// injected, stay false while any flit or credit is outstanding, and become
// true again after delivery — under both serial and sharded engines.
func TestDrainedActiveSets(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n, delivered := buildWorkers(t, workers, localSel)
			if !n.Drained() {
				t.Fatal("fresh network not drained")
			}
			n.NI(0).Inject(&msg.Packet{ID: 1, Src: 0, Dst: 63, Size: 5, Class: msg.ClassRequest}, 0)
			if n.Drained() {
				t.Fatal("drained with a queued packet")
			}
			var c int64
			for ; c < 1000 && !n.Drained(); c++ {
				n.Tick(c)
			}
			if len(*delivered) != 1 {
				t.Fatalf("delivered %d packets", len(*delivered))
			}
			// After delivery, credits are still flowing back for a few
			// cycles; Drained must have stayed false until the network was
			// genuinely idle. Verify against the exhaustive definition.
			if inside, inflight := n.FlitConservation(); inside != 0 || inflight != 0 {
				t.Fatalf("Drained() true with inside=%d inflight=%d", inside, inflight)
			}
			n.CheckDrained()
		})
	}
}

// TestStuckPacketDiagnostics: the drain watchdog must still identify a wedged
// packet. A one-node region map with a destination outside any app's
// reachable set isn't constructible, so wedge the network by never ticking
// past injection: the packet sits queued, Drained stays false, and
// StuckPacket names it once its residence exceeds the limit.
func TestStuckPacketDiagnostics(t *testing.T) {
	n, _ := buildWorkers(t, 2, localSel)
	p := &msg.Packet{ID: 7, Src: 0, Dst: 63, Size: 5, Class: msg.ClassRequest}
	n.NI(0).Inject(p, 0)
	// Run a handful of cycles so the packet enters the router, then stop
	// ticking the consumer side by checking the watchdog far in the future.
	for c := int64(0); c < 3; c++ {
		n.Tick(c)
	}
	if n.Drained() {
		t.Fatal("drained with an in-flight packet")
	}
	if got := n.StuckPacket(100000, 1000); got == nil {
		t.Fatal("StuckPacket failed to report the wedged packet")
	} else if got.ID != 7 {
		t.Fatalf("StuckPacket returned %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CheckDrained did not panic on an undrained network")
		}
	}()
	n.CheckDrained()
}
