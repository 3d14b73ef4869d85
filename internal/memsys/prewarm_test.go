package memsys_test

import (
	"fmt"
	"testing"

	"rair/internal/harness"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/topology"
)

// randStream issues on three cycles in four, a write one time in four, to
// a block of the core's own range or, half the time, of a range every core
// shares (block 0 included), at a random byte offset.
type randStream struct{ base uint64 }

func (r randStream) Next(rng *sim.RNG) (memsys.Access, bool) {
	if rng.Intn(4) == 0 {
		return memsys.Access{}, false
	}
	addr := uint64(rng.Intn(1024)) * 64
	if rng.Intn(2) == 0 {
		addr += r.base
	}
	return memsys.Access{Addr: addr + uint64(rng.Intn(64)), Write: rng.Intn(4) == 0}, true
}

// randStreams gives every node a randStream, except the nodes of app idle
// (-1 for none), which get nil.
func randStreams(regs *region.Map, idle int) func() []memsys.AddressStream {
	return func() []memsys.AddressStream {
		streams := make([]memsys.AddressStream, regs.Mesh().N())
		for n := range streams {
			if regs.AppAt(n) != idle || idle < 0 {
				streams[n] = randStream{base: uint64(n+1) << 32}
			}
		}
		return streams
	}
}

func parsecStreams() []memsys.AddressStream {
	_, streams := harness.PARSECScenario()
	return streams
}

// Property: Prewarm leaves every L1 and L2 way, every directory entry and
// the RNG exactly where the warm-up it replaced (Go-map directories, the
// float home test and the copy LRU, kept in prewarm_ref_test.go) leaves
// them: on the PARSEC scenario at two seeds, and on random streams over
// small caches (so L2 sets evict) at shared fractions 0 to 1, on six
// regions (none a power of two), with an idle application, with nodes no
// region owns, and on a 9×9 mesh whose 81 banks turn the directory off.
func TestPrewarmMatchesReference(t *testing.T) {
	small := memsys.DefaultSystemConfig()
	small.L1Size, small.L2Size = 4<<10, 32<<10
	quad := region.Quadrants(harness.Mesh8())
	half, err := region.FromRects(harness.Mesh8(), []region.Rect{{X0: 0, Y0: 0, X1: 4, Y1: 4}, {X0: 4, Y0: 0, X1: 8, Y1: 4}})
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name     string
		cfg      memsys.SystemConfig
		regs     *region.Map
		mk       func() []memsys.AddressStream
		seed     uint64
		accesses int
	}
	cases := []tc{
		{"parsec/seed1", memsys.DefaultSystemConfig(), quad, parsecStreams, 1, harness.PrewarmAccesses},
		{"parsec/seed4242", memsys.DefaultSystemConfig(), quad, parsecStreams, 4242, harness.PrewarmAccesses},
		{"sixgrid", small, region.SixGrid(harness.Mesh8()), randStreams(region.SixGrid(harness.Mesh8()), -1), 3, 8000},
		{"idle-app", small, quad, randStreams(quad, 2), 5, 8000},
		{"unassigned-nodes", small, half, randStreams(half, -1), 6, 8000},
	}
	for _, f := range []float64{0, 0.1, harness.CollSharedFrac, 1} {
		cfg := small
		cfg.SharedFrac = f
		cases = append(cases, tc{fmt.Sprintf("random/shared=%v", f), cfg, quad, randStreams(quad, -1), 7, 8000})
	}
	mesh9 := region.Quadrants(topology.NewMesh(9, 9))
	cases = append(cases, tc{"mesh9x9", small, mesh9, randStreams(mesh9, -1), 9, 4000})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := memsys.CheckPrewarm(c.cfg, c.regs, c.mk, c.seed, c.accesses); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// opaqueStream hides the stream's concrete type from the memory system, as
// the benchmark's gated streams do, so Next is an interface call there too.
type opaqueStream struct{ inner memsys.AddressStream }

func (o opaqueStream) Next(rng *sim.RNG) (memsys.Access, bool) { return o.inner.Next(rng) }

// BenchmarkPrewarm times the PARSEC scenario's warm-up, the whole of a
// parsec8 leg's memory-system set-up.
func BenchmarkPrewarm(b *testing.B) {
	for range b.N {
		b.StopTimer()
		regs, streams := harness.PARSECScenario()
		for i, st := range streams {
			streams[i] = opaqueStream{st}
		}
		sys := memsys.New(memsys.DefaultSystemConfig(), regs, streams, 1, func(int, *msg.Packet, int64) {})
		b.StartTimer()
		sys.Prewarm(harness.PrewarmAccesses)
	}
}
