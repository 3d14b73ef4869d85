package network

import "time"

// Engine self-profiling (Params.Profile): per-shard wall time per phase,
// coordinator barrier waits, armed-component visit counts and dirty-wire
// sweep sizes. All of it is observational — the profiled quantities are
// wall-clock and visit counts, never simulation state — so enabling it
// cannot change results; the recording paths are gated so that a network
// built without Profile pays nothing beyond dead register increments inside
// already-hot loops.
//
// Shard counters are written only by the owning shard during its phase
// (same ownership discipline as telemetry probes) and each shard's counter
// block is padded to a cache line so the writes never false-share. The
// coordinator reads them between ticks, after the phase barrier's
// happens-before edge.

// PhaseNames names the engine's phases in enginePhase order; barrier and
// per-shard phase arrays are indexed the same way.
var PhaseNames = [numPhases]string{"links", "compute"}

const numPhases = 2

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
	// the sweep paid for it). Over Nodes × Cycles slots, the rest is the
	// share the armed sweep skipped, the quiescence hit rate.
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
}

// BarrierProfile is the coordinator's barrier-wait record for one phase.
type BarrierProfile struct {
	Phase string `json:"phase"`
	// Waits counts barrier drains; WaitNS their total wall time.
	Waits  int64 `json:"waits"`
	WaitNS int64 `json:"waitNs"`
}

// shardProf is one shard's live counter block, exactly one 64-byte cache
// line so adjacent shards' writes never share a line.
type shardProf struct {
	phaseNS     [numPhases]int64
	routerTicks int64
	niTicks     int64
	dirtyFlit   int64
	dirtyCred   int64
	_           [64 - (numPhases+4)*8]byte
}

type barrierProf struct {
	waitNS int64
	waits  int64
}

type engineProf struct {
	cycles  int64
	shards  []shardProf
	barrier [numPhases]barrierProf
}

func newEngineProf(shards int) *engineProf {
	return &engineProf{shards: make([]shardProf, shards)}
}

// recordBarrier accumulates one coordinator barrier drain.
func (p *engineProf) recordBarrier(ph enginePhase, d time.Duration) {
	bp := &p.barrier[ph]
	bp.waitNS += d.Nanoseconds()
	bp.waits++
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
		out.Shards = append(out.Shards, ShardProfile{
			Shard:          i,
			Nodes:          len(n.eng.shards[i].routers),
			PhaseNS:        sp.phaseNS,
			RouterTicks:    sp.routerTicks,
			NITicks:        sp.niTicks,
			DirtyFlitWires: sp.dirtyFlit,
			DirtyCredWires: sp.dirtyCred,
		})
	}
	if len(n.eng.cmd) > 0 {
		for ph := 0; ph < numPhases; ph++ {
			bp := &prof.barrier[ph]
			out.Barrier = append(out.Barrier, BarrierProfile{
				Phase: PhaseNames[ph], Waits: bp.waits, WaitNS: bp.waitNS,
			})
		}
	}
	return out
}
