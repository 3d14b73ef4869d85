package network

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"rair/internal/invariant"
	"rair/internal/msg"
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
			n.Inject(&msg.Packet{
				ID: id, App: n.params.Regions.AppAt(src), Src: src, Dst: dst,
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

// TestHandOffOversubscribed: an engine built while its shards fit the Ps
// keeps spinning when GOMAXPROCS later drops to 1, so every worker polls on
// the one P the coordinator needs. The yields inside recv must still let
// the run finish, and the trace must be the serial one.
func TestHandOffOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sel := range []struct {
		name string
		mk   func(*region.Map) routing.Selector
	}{{"Local", localSel}, {"DBAR", dbarSel}} {
		nSerial, dSerial := buildWorkers(t, 0, sel.mk)
		ref := driveRandom(t, nSerial, dSerial)
		for _, workers := range []int{2, 4} {
			runtime.GOMAXPROCS(workers)
			n, d := buildWorkers(t, workers, sel.mk)
			runtime.GOMAXPROCS(1)
			if !n.eng.spin {
				t.Fatalf("%s workers=%d: built under GOMAXPROCS %d, not spinning", sel.name, workers, workers)
			}
			if got := driveRandom(t, n, d); !slices.Equal(got, ref) {
				t.Fatalf("%s workers=%d under GOMAXPROCS 1: trace differs from the serial one", sel.name, workers)
			}
		}
	}
}

// TestHandOffSpinRule: the hand-off spins only when the shards fit the Ps
// at construction.
func TestHandOffSpinRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, workers int
		spin           bool
	}{{2, 2, true}, {4, 4, true}, {4, 2, true}, {2, 3, false}, {1, 2, false}} {
		runtime.GOMAXPROCS(tc.procs)
		n, _ := buildWorkers(t, tc.workers, localSel)
		if n.eng.spin != tc.spin {
			t.Errorf("GOMAXPROCS %d, %d shards: spin = %v, want %v", tc.procs, tc.workers, n.eng.spin, tc.spin)
		}
	}
}

// TestEngineWorkerLifecycle: Close stops every worker, and a sharded network
// dropped without Close stops them once its finalizer runs.
func TestEngineWorkerLifecycle(t *testing.T) {
	settles := func(want int) bool {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			runtime.GC()
			if runtime.NumGoroutine() <= want {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	mk := func() *Network {
		regions := region.Quadrants(topology.NewMesh(8, 8))
		n := New(Params{
			Router: router.DefaultConfig(1), Regions: regions, Alg: routing.MinimalAdaptive{Mesh: regions.Mesh()},
			Sel: routing.LocalSelector{}, Workers: 4,
		})
		for c := int64(0); c < 10; c++ {
			n.Tick(c)
		}
		return n
	}
	// Workers of networks closed or dropped by earlier tests exit
	// asynchronously: take the count once it has held for 20 ms (or 5 s
	// have passed).
	before := runtime.NumGoroutine()
	for still, tries := 0, 0; still < 20 && tries < 5000; tries++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now != before {
			before, still = now, 0
		} else {
			still++
		}
	}
	n := mk()
	if runtime.NumGoroutine() != before+3 {
		t.Fatalf("%d goroutines with four shards, %d before", runtime.NumGoroutine(), before)
	}
	n.Close()
	if !settles(before) {
		t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
	}
	mk()
	if !settles(before) {
		t.Fatalf("%d goroutines after an unclosed network was collected, %d before New", runtime.NumGoroutine(), before)
	}
}

// TestEngineShardPartition: the shard ranges tile the nodes in order with no
// gap or overlap, of inverts bounds for every node, and the engine's shards
// are exactly those ranges — including node counts the shard count does not
// divide, where the boundaries are uneven. Then, on wired networks, the link
// table holds every link once and the pushing ends hold a handle to each
// (checkWiring).
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
		e := newEngine(make([]*router.Router, tc.nodes), make([]*router.NI, tc.nodes), part)
		for i, sh := range e.shards {
			lo, hi := part.bounds(i)
			if sh.lo != lo || len(sh.routers) != hi-lo || len(sh.nis) != hi-lo || e.shardOf(lo) != sh {
				t.Fatalf("nodes=%d workers=%d: engine shard %d does not match the partition", tc.nodes, tc.workers, i)
			}
		}
		e.close()
	}
	quad := topology.NewChiplets(2, 2, 4)
	for _, tc := range []struct {
		name    string
		regions *region.Map
		chips   *topology.Chiplets
	}{
		{"8x8", region.Quadrants(topology.NewMesh(8, 8)), nil},
		{"5x3", region.Single(topology.NewMesh(5, 3)), nil},
		{"chiplet-quad", region.Quadrants(quad.Mesh()), quad},
	} {
		for workers := 1; workers <= 3; workers++ {
			n := New(Params{
				Router:  router.DefaultConfig(1),
				Regions: tc.regions,
				Alg:     routing.MinimalAdaptive{Mesh: tc.regions.Mesh()},
				Sel:     routing.LocalSelector{},
				Workers: workers, Chiplets: tc.chips,
				// The checker walks the links through the senders' handles.
				Check: &invariant.Config{},
			})
			checkWiring(t, fmt.Sprintf("%s workers=%d", tc.name, workers), n)
			n.Close()
		}
	}
}

// checkWiring audits a network's link table against the topology, and the
// handles the pushing ends hold (as the checker walks them) against the
// table. That each shard's slabs hold exactly its share of the table is the
// mesh lockstep's to show (router.TestNetworkLockstep, at 2 and 3 workers):
// a wire in the wrong slab or row delivers to the wrong port or never.
func checkWiring(t *testing.T, name string, n *Network) {
	t.Helper()
	mesh, chips := n.mesh, n.chiplets
	links := linkTable(mesh, chips)
	// Every link the topology calls for appears exactly once, under a unique
	// key, and nothing else does — in particular no pair across a tile edge.
	key := func(l link) string { return l.src.String() + ">" + l.dst.String() }
	seen, keys := map[link]int{}, map[string]bool{}
	for _, l := range links {
		seen[l]++
		if keys[key(l)] {
			t.Fatalf("%s: key %s registered twice", name, key(l))
		}
		keys[key(l)] = true
		if chips != nil && !chips.SameChip(l.src.Node, l.dst.Node) {
			t.Fatalf("%s: link %s crosses a tile edge", name, key(l))
		}
	}
	want := 0
	expect := func(src, dst router.LinkEnd) {
		want++
		if seen[link{src, dst}] != 1 {
			t.Fatalf("%s: link %v>%v appears %d times", name, src, dst, seen[link{src, dst}])
		}
	}
	for id := 0; id < mesh.N(); id++ {
		for d := topology.North; d < topology.NumDirs; d++ {
			if nb := mesh.Neighbor(id, d); nb != -1 && (chips == nil || chips.SameChip(id, nb)) {
				expect(router.LinkEnd{Node: id, Dir: d}, router.LinkEnd{Node: nb, Dir: d.Opposite()})
			}
		}
		ni, port := router.LinkEnd{Node: id, NI: true}, router.LinkEnd{Node: id, Dir: topology.Local}
		expect(ni, port)
		expect(port, ni)
	}
	if len(links) != want {
		t.Fatalf("%s: table has %d links, topology calls for %d", name, len(links), want)
	}
	// Nodes 3 and 4 are row neighbours everywhere, across a tile edge in the
	// chiplet quad.
	if !keys["ni3>r3"] || !keys["r3>ni3"] || keys["r3>r4"] != (chips == nil) {
		t.Fatalf("%s: links of node 3 are not keyed ni3>r3, r3>ni3, r3>r4", name)
	}
	// Every pushing end holds a handle: the checker reads each link of the
	// table through them (an unset handle has no slab to read).
	walked := 0
	n.check.EachLink(func(_, _ router.LinkEnd, w router.FlitWire, _ int) { w.Each(func(msg.Flit) {}); walked++ })
	if walked != len(links) {
		t.Fatalf("%s: the checker walks %d links, the table holds %d", name, walked, len(links))
	}
}

// TestCongestionGating: propagation runs iff the selector consumes the
// signal.
func TestCongestionGating(t *testing.T) {
	regions := mesh4()
	base := Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
	}
	for _, tc := range []struct {
		name string
		sel  routing.Selector
		want bool
	}{
		{"local", routing.LocalSelector{}, false},
		{"dbar", dbarSel(regions), true},
	} {
		p := base
		p.Sel = tc.sel
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
			n.Inject(&msg.Packet{ID: 1, Src: 0, Dst: 63, Size: 5, Class: msg.ClassRequest}, 0)
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
	n.Inject(p, 0)
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
