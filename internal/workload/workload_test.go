package workload

import (
	"testing"

	"rair/internal/memsys"
	"rair/internal/sim"
)

func TestStreamIssueRate(t *testing.T) {
	s := NewStream(Blackscholes, 0, 0)
	rng := sim.NewRNG(1)
	issued := 0
	const cycles = 20000
	for i := 0; i < cycles; i++ {
		if _, ok := s.Next(rng); ok {
			issued++
		}
	}
	frac := float64(issued) / cycles
	if frac < Blackscholes.IssueProb-0.02 || frac > Blackscholes.IssueProb+0.02 {
		t.Fatalf("issue rate %v, want ≈%v", frac, Blackscholes.IssueProb)
	}
}

func TestStreamsDisjointAddressSpaces(t *testing.T) {
	a := NewStream(Raytrace, 0, 3)
	b := NewStream(Raytrace, 1, 3) // other app
	c := NewStream(Raytrace, 0, 4) // other core, same app
	rng := sim.NewRNG(2)
	seen := map[uint64]string{}
	collect := func(s *Stream, label string, privateOnly bool) {
		for i := 0; i < 3000; i++ {
			acc, ok := s.Next(rng)
			if !ok {
				continue
			}
			// Shared accesses within an app intentionally overlap
			// across cores; tag them by app only.
			key := acc.Addr >> 6
			owner := label
			if acc.Addr&(1<<46) != 0 {
				owner = label[:1] + "-shared"
			}
			if prev, ok := seen[key]; ok && prev != owner {
				t.Fatalf("address %#x shared between %s and %s", acc.Addr, prev, owner)
			}
			seen[key] = owner
		}
	}
	collect(a, "A0c3", true)
	collect(b, "B1c3", true)
	collect(c, "A0c4", true)
}

// The proxies' L1-filtered miss intensity must follow the PARSEC ordering
// the paper relies on: blackscholes < swaptions < fluidanimate < raytrace.
func TestIntensityOrdering(t *testing.T) {
	missFlux := func(p Profile) float64 {
		l1 := memsys.NewCache(32<<10, 2, 64)
		s := NewStream(p, 0, 0)
		rng := sim.NewRNG(7)
		misses := 0
		const cycles = 60000
		for i := 0; i < cycles; i++ {
			a, ok := s.Next(rng)
			if !ok {
				continue
			}
			if !l1.Access(a.Addr) {
				misses++
			}
		}
		return float64(misses) / cycles // misses per cycle
	}
	prev := -1.0
	for _, p := range Profiles() {
		f := missFlux(p)
		t.Logf("%s: %.4f misses/cycle", p.Name, f)
		if f <= prev {
			t.Fatalf("%s intensity %.4f not above previous %.4f", p.Name, f, prev)
		}
		prev = f
	}
}

func TestSpatialLocality(t *testing.T) {
	// Raytrace (RunLen 4) must still produce sequential runs: consecutive
	// block addresses back to back.
	s := NewStream(Raytrace, 0, 0)
	rng := sim.NewRNG(3)
	sequential, total := 0, 0
	var last uint64
	for i := 0; i < 10000; i++ {
		a, ok := s.Next(rng)
		if !ok {
			continue
		}
		if last != 0 && a.Addr == last+64 {
			sequential++
		}
		last = a.Addr
		total++
	}
	if frac := float64(sequential) / float64(total); frac < 0.4 {
		t.Fatalf("sequential fraction %v too low", frac)
	}
}

func TestWriteFraction(t *testing.T) {
	s := NewStream(Fluidanimate, 0, 0)
	rng := sim.NewRNG(4)
	writes, total := 0, 0
	for i := 0; i < 30000; i++ {
		a, ok := s.Next(rng)
		if !ok {
			continue
		}
		if a.Write {
			writes++
		}
		total++
	}
	frac := float64(writes) / float64(total)
	if frac < Fluidanimate.WriteFrac-0.03 || frac > Fluidanimate.WriteFrac+0.03 {
		t.Fatalf("write fraction %v, want ≈%v", frac, Fluidanimate.WriteFrac)
	}
}

func TestAllProfilesComplete(t *testing.T) {
	all := Profiles()
	want := []string{"blackscholes", "swaptions", "fluidanimate", "raytrace"}
	if len(all) != len(want) {
		t.Fatalf("the evaluation runs %d applications, got %d", len(want), len(all))
	}
	for i, p := range all {
		if p.Name != want[i] {
			t.Fatalf("profile %d is %q, want %q", i, p.Name, want[i])
		}
		if p.IssueProb <= 0 || p.IssueProb > 1 || p.PrivateBlocks < 1 || p.SharedBlocks < 1 {
			t.Fatalf("implausible parameters for %q: %+v", p.Name, p)
		}
		if p.SharedProb < 0 || p.SharedProb > 1 || p.WriteFrac < 0 || p.WriteFrac > 1 {
			t.Fatalf("bad probabilities for %q", p.Name)
		}
	}
}

func TestAllProfilesStreamAndMiss(t *testing.T) {
	for _, p := range Profiles() {
		l1 := memsys.NewCache(32<<10, 2, 64)
		s := NewStream(p, 0, 0)
		rng := sim.NewRNG(11)
		issued, misses := 0, 0
		for i := 0; i < 20000; i++ {
			a, ok := s.Next(rng)
			if !ok {
				continue
			}
			issued++
			if !l1.Access(a.Addr) {
				misses++
			}
		}
		if issued == 0 {
			t.Fatalf("%s never issues", p.Name)
		}
		if misses == 0 {
			t.Fatalf("%s produces no network traffic at all", p.Name)
		}
	}
}
