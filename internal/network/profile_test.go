package network

import (
	"testing"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/topology"
)

// profileRun drives the deterministic loaded mesh with self-profiling
// configured and returns the delivery trace plus the profile.
func profileRun(t *testing.T, workers int, profile bool) ([]uint64, *EngineProfile) {
	t.Helper()
	regions := region.Quadrants(topology.NewMesh(8, 8))
	var deliveries []uint64
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:     routing.LocalSelector{},
		Policy:  rairSpec,
		OnEject: func(p *msg.Packet, now int64) {
			deliveries = append(deliveries, p.ID, uint64(now))
		},
		Workers: workers,
		Profile: profile,
	})
	defer n.Close()
	rng := sim.NewRNG(7)
	var id uint64
	var c int64
	for ; c < 2000; c++ {
		inject(n, regions, rng, &id, c)
		n.Tick(c)
	}
	for ; !n.Drained() && c < 5000; c++ {
		n.Tick(c)
	}
	n.CheckDrained()
	return deliveries, n.EngineProfile()
}

func TestEngineProfileSerial(t *testing.T) {
	_, prof := profileRun(t, 0, true)
	if prof == nil {
		t.Fatal("Profile on, EngineProfile nil")
	}
	if prof.Cycles == 0 || prof.Workers != 1 || len(prof.Shards) != 1 {
		t.Fatalf("unexpected shape: %+v", prof)
	}
	if len(prof.Barrier) != 0 {
		t.Fatalf("serial engine has no barriers, got %d entries", len(prof.Barrier))
	}
	sh := prof.Shards[0]
	if sh.Nodes != 64 || sh.RouterTicks == 0 || sh.NITicks == 0 {
		t.Fatalf("empty shard profile: %+v", sh)
	}
	if sh.DirtyFlitWires == 0 || sh.DirtyCredWires == 0 {
		t.Fatalf("no dirty-wire sweeps recorded: %+v", sh)
	}
	// A loaded-then-drained run must skip some (node, cycle) slots and tick
	// some.
	if slots := int64(sh.Nodes) * prof.Cycles; sh.RouterTicks >= slots || sh.NITicks > slots {
		t.Fatalf("%d router and %d NI ticks over %d slots", sh.RouterTicks, sh.NITicks, slots)
	}
	var phaseNS int64
	for _, ns := range sh.PhaseNS {
		phaseNS += ns
	}
	if phaseNS <= 0 {
		t.Fatalf("no phase time recorded: %+v", sh.PhaseNS)
	}
}

func TestEngineProfileParallel(t *testing.T) {
	_, prof := profileRun(t, 2, true)
	if prof == nil || prof.Workers != 2 || len(prof.Shards) != 2 {
		t.Fatalf("unexpected shape: %+v", prof)
	}
	if len(prof.Barrier) != int(numPhases) {
		t.Fatalf("want %d barrier entries, got %d", numPhases, len(prof.Barrier))
	}
	// Every phase's barrier drains once per cycle.
	for _, bp := range prof.Barrier {
		if bp.Waits != prof.Cycles {
			t.Fatalf("phase %s: %d waits over %d cycles", bp.Phase, bp.Waits, prof.Cycles)
		}
	}
}

// TestProfileObserverOnly is the never-perturb contract for self-profiling:
// the delivery trace is bit-identical with profiling on or off, serial and
// sharded.
func TestProfileObserverOnly(t *testing.T) {
	base, off := profileRun(t, 0, false)
	if off != nil {
		t.Fatal("Profile off, EngineProfile non-nil")
	}
	if len(base) == 0 {
		t.Fatal("no deliveries")
	}
	for _, workers := range []int{0, 2, 4} {
		got, _ := profileRun(t, workers, true)
		if len(got) != len(base) {
			t.Fatalf("workers=%d profiled: %d delivery records, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d profiled: delivery trace diverged at record %d", workers, i)
			}
		}
	}
}
