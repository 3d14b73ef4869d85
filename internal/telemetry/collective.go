package telemetry

// Collective-workload progress rows. The collective source (see
// internal/collective) tracks per-phase send/delivery counters and folds
// each delivered packet's blame vector per phase; the harness attaches the
// resulting report to the run's telemetry collector, so the observability
// snapshot decomposes both directions of a region-boundary standoff: the
// attribution tables say who stalls the latency-sensitive applications, the
// collective phase rows say who stalls the collective, phase by phase.

// CollectivePhase is one phase's progress and blame decomposition.
type CollectivePhase struct {
	Phase             string `json:"phase"`
	Sent              int64  `json:"sent"`
	Delivered         int64  `json:"delivered"`
	LatencyCycles     int64  `json:"latencyCycles"`
	InjectQueueCycles int64  `json:"injectQueueCycles"`
	NativeCycles      int64  `json:"nativeCycles"`
	ForeignCycles     int64  `json:"foreignCycles"`
	EscapeCycles      int64  `json:"escapeCycles"`
	FaultCycles       int64  `json:"faultCycles"`
}

// CollectiveReport summarizes one collective workload's run.
type CollectiveReport struct {
	Op            string `json:"op"`
	App           int    `json:"app"`
	Ranks         int    `json:"ranks"`
	RoundsStarted int64  `json:"roundsStarted"`
	Rounds        int64  `json:"rounds"`
	// CompletionCycles sums completed rounds' durations; divide by Rounds
	// for the mean collective completion time.
	CompletionCycles int64             `json:"completionCycles"`
	Phases           []CollectivePhase `json:"phases"`
}

// AttachCollective records a collective progress report for inclusion in
// Report(). Coordinator-only, like all cross-probe operations.
func (c *Collector) AttachCollective(rep *CollectiveReport) { c.collective = rep }
