package network

import (
	"math/bits"
	"testing"
	"testing/quick"

	"rair/internal/msg"
	"rair/internal/sim"
)

// TestQuiescentTickIsNoop is the property the engine's armed-component sweep
// depends on: a component whose wake bit is clear may be skipped because
// ticking it is (after one settle) a fixed point. An unarmed router may
// still carry deferred lazy cleanup — an output VC whose tail departed and
// whose credits all returned stays owned until the next tick's free() pass,
// which always runs before any consumer of the port state — so the property
// is checked as: one forced settle tick (applies the deferred frees, must
// not create work or re-arm), then a second forced tick whose full
// observable surface — pipeline debug rendering, work mirror, DPA occupancy
// registers, occupancy snapshot, wake bit, and the NI's activity counters,
// flits out and ejections — comes out bit-identical. A failure means
// quiescence elision is not semantics-preserving (e.g. a policy whose
// Update(0,0) is not a fixed point) and the sweep would diverge from an
// always-tick engine.
func TestQuiescentTickIsNoop(t *testing.T) {
	prop := func(seed uint64, workerSel, stopSel uint8) bool {
		workers := int(workerSel%4) + 1
		n, _ := buildWorkers(t, workers, localSel)
		rng := sim.NewRNG(seed)
		mesh := n.Mesh()
		stop := 50 + int64(stopSel) // mid-flight: some routers busy, some not
		id := uint64(0)
		for c := int64(0); c < stop; c++ {
			for i := 0; i < 3; i++ {
				src, dst := rng.Intn(mesh.N()), rng.Intn(mesh.N())
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
		checked := 0
		for _, sh := range n.eng.shards {
			for li, r := range sh.routers {
				if sh.soa.ArmedRouter(li) {
					continue
				}
				if sh.soa.Work[li] != 0 {
					t.Errorf("router %d unarmed with Work=%d", r.Node(), sh.soa.Work[li])
					return false
				}
				// Settle tick: applies any deferred output-VC frees. It must
				// not create work or re-arm the router.
				r.Tick(stop)
				if sh.soa.Work[li] != 0 || sh.soa.ArmedRouter(li) {
					t.Errorf("router %d settle tick created work or re-armed", r.Node())
					return false
				}
				before := r.DebugState()
				nat, frn := sh.soa.NativeOcc[li], sh.soa.ForeignOcc[li]
				r.Tick(stop)
				if after := r.DebugState(); after != before {
					t.Errorf("router %d state changed on quiescent tick:\nbefore:\n%safter:\n%s", r.Node(), before, after)
					return false
				}
				if sh.soa.Work[li] != 0 || sh.soa.ArmedRouter(li) ||
					sh.soa.NativeOcc[li] != nat || sh.soa.ForeignOcc[li] != frn {
					t.Errorf("router %d registers changed on quiescent tick", r.Node())
					return false
				}
				checked++
			}
			for li, ni := range sh.nis {
				if sh.soa.ArmedNI(li) {
					continue
				}
				if sh.soa.NIWork[li] != 0 {
					t.Errorf("NI %d unarmed with NIWork=%d", ni.Node(), sh.soa.NIWork[li])
					return false
				}
				q, s, d := ni.WorkCounters()
				out, ej := ni.FlitsOut(), ni.Ejected()
				ni.Tick(stop)
				q2, s2, d2 := ni.WorkCounters()
				if q2 != q || s2 != s || d2 != d || ni.FlitsOut() != out || ni.Ejected() != ej ||
					sh.soa.NIWork[li] != 0 || sh.soa.ArmedNI(li) {
					t.Errorf("NI %d state changed on quiescent tick", ni.Node())
					return false
				}
				checked++
			}
		}
		if checked == 0 {
			t.Error("workload left no quiescent components to check")
			return false
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainedNetworkTickAllocs gates the quiescent path itself: once the
// network has drained, every wake bitmap is empty and a tick must not only
// skip all components but also touch the heap zero times. Complements
// TestSteadyStateTickAllocs (the loaded-path gate).
func TestDrainedNetworkTickAllocs(t *testing.T) {
	n, _ := buildWorkers(t, 1, localSel)
	rng := sim.NewRNG(1)
	mesh := n.Mesh()
	var c int64
	for ; c < 200; c++ {
		src, dst := rng.Intn(mesh.N()), rng.Intn(mesh.N())
		if src != dst {
			n.Inject(&msg.Packet{
				ID: uint64(c + 1), App: n.params.Regions.AppAt(src), Src: src, Dst: dst,
				Size: 2, Class: msg.ClassRequest,
			}, c)
		}
		n.Tick(c)
	}
	for ; c < 100000 && !n.Drained(); c++ {
		n.Tick(c)
	}
	n.CheckDrained()
	soa := n.eng.shards[0].soa
	if r, ni := armed(soa.ArmedR), armed(soa.ArmedN); r != 0 || ni != 0 {
		t.Fatalf("drained network still has %d routers / %d NIs armed", r, ni)
	}
	if avg := testing.AllocsPerRun(100, func() {
		n.Tick(c)
		c++
	}); avg != 0 {
		t.Fatalf("quiescent tick allocates %.1f times per cycle, want 0", avg)
	}
}

// armed counts the set bits of a wake bitmap.
func armed(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}
