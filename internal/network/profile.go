package network

import (
	"math/bits"
	"time"
)

// Engine self-profiling (Params.Profile): per-shard wall time per phase,
// coordinator barrier-wait histograms, armed-component visit counts and
// dirty-wire sweep sizes, plus derived quiescence hit rates. All of it is
// observational — the profiled quantities are wall-clock and visit counts,
// never simulation state — so enabling it cannot change results; the
// recording paths are gated so that a network built without Profile pays
// nothing beyond dead register increments inside already-hot loops.
//
// Shard counters are written only by the owning shard during its phase
// (same ownership discipline as telemetry probes) and each shard's counter
// block is padded to a cache line so the writes never false-share. The
// coordinator reads them between ticks, after the phase barrier's
// happens-before edge.

// PhaseNames names the engine's phases in enginePhase order; barrier and
// per-shard phase arrays are indexed the same way.
var PhaseNames = [numPhases]string{"links", "compute", "congFill", "congSwap"}

const numPhases = 4

// barrierHistBuckets is the number of log2-nanosecond barrier-wait buckets:
// bucket k counts waits in [2^(k-1), 2^k) ns, with the last bucket catching
// everything at or above ~65 µs.
const barrierHistBuckets = 18

// EngineProfile is the exported self-profile of one network's tick engine.
type EngineProfile struct {
	// Cycles is the number of Tick calls profiled; Workers the shard count.
	Cycles  int64 `json:"cycles"`
	Workers int   `json:"workers"`

	Shards []ShardProfile `json:"shards"`

	// Barrier holds the coordinator's post-phase barrier waits (time spent
	// draining worker completions after finishing its own shard), one entry
	// per phase. Empty on serial engines, which have no barriers.
	Barrier []BarrierProfile `json:"barrier,omitempty"`
}

// ShardProfile is one shard's slice of the profile.
type ShardProfile struct {
	Shard int `json:"shard"`
	Nodes int `json:"nodes"`

	// PhaseNS is wall time spent executing each phase, in PhaseNames order.
	PhaseNS [numPhases]int64 `json:"phaseNs"`

	// RouterTicks/NITicks count armed-component visits in the compute
	// sweep (a stalled router is visited but not ticked; it still counts —
	// the sweep paid for it).
	RouterTicks int64 `json:"routerTicks"`
	NITicks     int64 `json:"niTicks"`

	// FastPathTicks counted router ticks that replayed a switch-allocation
	// plan. Plan replay is gone, so it is always zero; the field stays
	// because the benchmark harness reads it.
	FastPathTicks int64 `json:"fastPathTicks"`

	// DirtyFlitWires/DirtyCredWires count wire visits in the phase-1
	// dirty-bitmap sweeps (foreign wires, polled unconditionally, are not
	// included).
	DirtyFlitWires int64 `json:"dirtyFlitWires"`
	DirtyCredWires int64 `json:"dirtyCredWires"`

	// RouterQuiescence/NIQuiescence are the fraction of (node, cycle)
	// slots the armed sweep skipped — the quiescence hit rate.
	RouterQuiescence float64 `json:"routerQuiescence"`
	NIQuiescence     float64 `json:"niQuiescence"`
}

// BarrierProfile is the coordinator's barrier-wait record for one phase.
type BarrierProfile struct {
	Phase string `json:"phase"`
	// Waits counts barrier drains; WaitNS their total wall time.
	Waits  int64 `json:"waits"`
	WaitNS int64 `json:"waitNs"`
	// Hist is a log2-ns histogram: Hist[k] counts waits below 2^k ns and
	// at or above 2^(k-1) ns (k=0: sub-nanosecond), with the top bucket
	// unbounded.
	Hist [barrierHistBuckets]int64 `json:"hist"`
}

// shardProf is one shard's live counter block, exactly one 64-byte cache
// line so adjacent shards' writes never share a line.
type shardProf struct {
	phaseNS     [numPhases]int64
	routerTicks int64
	niTicks     int64
	dirtyFlit   int64
	dirtyCred   int64
}

type barrierProf struct {
	waitNS int64
	waits  int64
	hist   [barrierHistBuckets]int64
}

type engineProf struct {
	cycles  int64
	shards  []shardProf
	barrier [numPhases]barrierProf
}

func newEngineProf(shards int) *engineProf {
	return &engineProf{shards: make([]shardProf, shards)}
}

// log2Bucket maps a nanosecond wait to its histogram bucket.
func log2Bucket(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b >= barrierHistBuckets {
		b = barrierHistBuckets - 1
	}
	return b
}

// recordBarrier accumulates one coordinator barrier drain.
func (p *engineProf) recordBarrier(ph enginePhase, d time.Duration) {
	bp := &p.barrier[ph]
	ns := d.Nanoseconds()
	bp.waitNS += ns
	bp.waits++
	bp.hist[log2Bucket(ns)]++
}

// EngineProfile snapshots the engine's self-profile, or nil when the
// network was built without Params.Profile. Call between ticks (or after
// the run) on the goroutine driving Tick: the phase barriers order every
// shard's counter writes before the coordinator's read.
func (n *Network) EngineProfile() *EngineProfile {
	prof := n.eng.prof
	if prof == nil {
		return nil
	}
	out := &EngineProfile{Cycles: prof.cycles, Workers: len(n.eng.shards)}
	for i := range prof.shards {
		sp := &prof.shards[i]
		sh := n.eng.shards[i]
		s := ShardProfile{
			Shard:          i,
			Nodes:          len(sh.routers),
			PhaseNS:        sp.phaseNS,
			RouterTicks:    sp.routerTicks,
			NITicks:        sp.niTicks,
			DirtyFlitWires: sp.dirtyFlit,
			DirtyCredWires: sp.dirtyCred,
		}
		if slots := int64(s.Nodes) * prof.cycles; slots > 0 {
			s.RouterQuiescence = 1 - float64(s.RouterTicks)/float64(slots)
			s.NIQuiescence = 1 - float64(s.NITicks)/float64(slots)
		}
		out.Shards = append(out.Shards, s)
	}
	if len(n.eng.cmd) > 0 {
		for ph := 0; ph < numPhases; ph++ {
			bp := &prof.barrier[ph]
			out.Barrier = append(out.Barrier, BarrierProfile{
				Phase: PhaseNames[ph], Waits: bp.waits, WaitNS: bp.waitNS, Hist: bp.hist,
			})
		}
	}
	return out
}
