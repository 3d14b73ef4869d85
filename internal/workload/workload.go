// Package workload models the four PARSEC applications the evaluation uses
// (blackscholes, swaptions, fluidanimate, raytrace) as parameterized
// address-stream generators for the memsys substrate. The real benchmarks'
// binaries and SIMICS/GEMS traces are not reproducible here; these proxies
// regenerate the property the NoC experiments consume — per-application
// network intensity and locality, spanning low (blackscholes) to high
// (raytrace) traffic — through an L1-filtered working-set model:
//
//   - a per-core private working set (spatial locality via sequential runs)
//   - a shared working set touched with an application-specific probability
//   - an issue probability modeling compute/memory ratio
//
// Working sets larger than the 32 KB L1 raise miss rates and thus network
// intensity; the parameters below were chosen so the relative intensity
// ordering matches the PARSEC characterization (blackscholes < swaptions <
// fluidanimate < raytrace).
package workload

import (
	"rair/internal/memsys"
	"rair/internal/sim"
)

// Profile parameterizes one application's memory behaviour.
type Profile struct {
	Name string
	// IssueProb is the probability a core issues a memory access in a
	// cycle (compute intensity model).
	IssueProb float64
	// PrivateBlocks is the per-core private working set in cache blocks.
	PrivateBlocks int
	// SharedBlocks is the application-wide shared working set in blocks.
	SharedBlocks int
	// SharedProb is the probability an access touches the shared set.
	SharedProb float64
	// RunLen is the mean sequential run length (spatial locality): after
	// a random jump the stream walks consecutive blocks.
	RunLen int
	// WriteFrac is the fraction of writes.
	WriteFrac float64
}

// The four PARSEC proxies. Intensity comes from working sets relative to
// the 32 KB (512-block) L1 and issue probability.
var (
	// Blackscholes: small per-thread state, compute bound → very low
	// network intensity.
	Blackscholes = Profile{
		Name: "blackscholes", IssueProb: 0.25,
		PrivateBlocks: 320, SharedBlocks: 512, SharedProb: 0.05,
		RunLen: 16, WriteFrac: 0.2,
	}
	// Swaptions: modest working set, low-to-moderate misses.
	Swaptions = Profile{
		Name: "swaptions", IssueProb: 0.30,
		PrivateBlocks: 1024, SharedBlocks: 1024, SharedProb: 0.08,
		RunLen: 12, WriteFrac: 0.25,
	}
	// Fluidanimate: larger grids with neighbor sharing → medium-high
	// intensity. Working sets exceed the 512-block L1 (network traffic)
	// but mostly fit the region's aggregate L2, as the cooperative-cache
	// RNoC premise requires.
	Fluidanimate = Profile{
		Name: "fluidanimate", IssueProb: 0.35,
		PrivateBlocks: 2048, SharedBlocks: 4096, SharedProb: 0.20,
		RunLen: 8, WriteFrac: 0.35,
	}
	// Raytrace: large irregular scene data → high intensity (the largest
	// L1-resident footprint and the most shared traffic).
	Raytrace = Profile{
		Name: "raytrace", IssueProb: 0.40,
		PrivateBlocks: 3072, SharedBlocks: 8192, SharedProb: 0.35,
		RunLen: 4, WriteFrac: 0.1,
	}
)

// Profiles returns the four headline proxies in the paper's order
// (blackscholes, swaptions, fluidanimate, raytrace).
func Profiles() []Profile {
	return []Profile{Blackscholes, Swaptions, Fluidanimate, Raytrace}
}

// blockBytes matches the Table 1 block size; streams generate
// block-granular addresses.
const blockBytes = 64

// Stream is one core's address stream for a profile. It implements
// memsys.AddressStream.
type Stream struct {
	prof Profile

	run    int    // remaining blocks in the current sequential run
	cur    uint64 // current block address
	shared bool   // current run is in the shared set
	baseP  uint64 // private segment base
	baseS  uint64 // shared segment base
}

// NewStream builds the stream for one core (thread) of an application.
// Address spaces are disjoint per app and per core so streams never alias.
func NewStream(prof Profile, app, core int) *Stream {
	return &Stream{
		prof:  prof,
		baseP: (uint64(app+1) << 48) | (uint64(core+1) << 32),
		baseS: (uint64(app+1) << 48) | (1 << 46),
	}
}

// Next implements memsys.AddressStream.
func (s *Stream) Next(rng *sim.RNG) (memsys.Access, bool) {
	if !rng.Bool(s.prof.IssueProb) {
		return memsys.Access{}, false
	}
	if s.run <= 0 {
		// Jump to a new run.
		s.shared = rng.Bool(s.prof.SharedProb)
		if s.shared {
			s.cur = s.baseS + uint64(rng.Intn(max(1, s.prof.SharedBlocks)))*blockBytes
		} else {
			s.cur = s.baseP + uint64(rng.Intn(max(1, s.prof.PrivateBlocks)))*blockBytes
		}
		s.run = 1 + rng.Intn(max(1, 2*s.prof.RunLen)) // mean ≈ RunLen
	} else {
		s.cur += blockBytes
	}
	s.run--
	return memsys.Access{Addr: s.cur, Write: rng.Bool(s.prof.WriteFrac)}, true
}
