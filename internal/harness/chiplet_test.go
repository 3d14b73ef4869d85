package harness

import (
	"fmt"
	"testing"

	"rair/internal/invariant"
)

// TestChipletRegionAlignment: the one-region-per-chiplet mapping relies on
// region.Grid's row-major rectangle numbering agreeing with Chiplets.ChipOf;
// if either numbering changes, the victim/aggressor roles of the chiplet
// scenario silently shuffle.
func TestChipletRegionAlignment(t *testing.T) {
	cs := ChipletQuad()
	regs := ChipletRegions(cs)
	for id := 0; id < cs.Mesh().N(); id++ {
		if got, want := regs.AppAt(id), cs.ChipOf(id); got != want {
			t.Fatalf("node %d: region app %d, chip %d", id, got, want)
		}
	}
}

// TestChipletScenarioShape: the co-run must actually cross the package
// boundary — every aggressor carries a component directed at victim nodes,
// and the directed targets sit in the far half of the victim tile (the
// calibration depends on foreign flits traversing many victim links).
func TestChipletScenarioShape(t *testing.T) {
	cs := ChipletQuad()
	regs, apps := ChipletScenario(cs, ChipletAggrFrac)
	if len(apps) != 4 {
		t.Fatalf("apps = %d, want 4", len(apps))
	}
	gw := cs.Gateway(0)
	victim := map[int]bool{}
	for _, v := range regs.Nodes(0) {
		victim[v] = true
	}
	for a := 1; a < len(apps); a++ {
		if len(apps[a].Components) != 2 {
			t.Fatalf("aggressor %d has %d components, want 2", a, len(apps[a].Components))
		}
	}
	// The directed component's reachable destinations: sample draws.
	mesh := cs.Mesh()
	for _, v := range regs.Nodes(0) {
		if mesh.Distance(gw, v) >= cs.K && !victim[v] {
			t.Fatalf("far target %d outside victim tile", v)
		}
	}
}

// TestChipletRunDeterminism: the chiplet co-run — eject-and-reinject bridge,
// package crossbar, per-chiplet regions — must produce bit-identical victim
// statistics across tick-engine worker counts, with the panic-mode
// invariant checker (conservation, credits, VC allocation, hop progress)
// live. This is the determinism-matrix entry for the two-level topology.
func TestChipletRunDeterminism(t *testing.T) {
	cs := ChipletQuad()
	regs, apps := ChipletScenario(cs, ChipletAggrFrac)
	mkRC := func(workers int) RunConfig {
		return RunConfig{
			Regions: regs, Router: synthCfg(), Apps: apps,
			Scheme: RAIR("RA_RAIR"), Dur: testDur(), Seed: 7,
			Workers: workers, Chiplets: cs,
			Check: &invariant.Config{Every: 64},
		}
	}
	ref := Run(mkRC(0))
	if ref.Packets() == 0 {
		t.Fatal("reference run delivered nothing")
	}
	want := collectorSurface(ref)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if s := collectorSurface(Run(mkRC(workers))); s != want {
				t.Fatalf("stats diverge\n got %s\nwant %s", s, want)
			}
		})
	}
}

// TestChipletSynthOrdering locks the calibrated boundary-interference
// signal the chiplet-synth guards depend on: interference is present
// under the baseline, and RAIR's boundary gating contains it.
func TestChipletSynthOrdering(t *testing.T) {
	res := ChipletSynth(QuickDurations(), 1)
	idx := map[string]int{}
	for i, s := range res.Labels {
		idx[s] = i
	}
	rr, rair := res.Slowdown(idx["RO_RR"], 0), res.Slowdown(idx["RA_RAIR"], 0)
	if rr < 1.01 {
		t.Fatalf("RO_RR slowdown %.3f: no measurable boundary interference", rr)
	}
	if rair >= rr {
		t.Fatalf("RA_RAIR slowdown %.3f >= RO_RR %.3f: boundary gating not helping", rair, rr)
	}
}
