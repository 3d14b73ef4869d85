package rair

import (
	"fmt"
	"io"
	"sort"

	"rair/internal/faults"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/obs"
	"rair/internal/telemetry"
)

// ReportSchema is the version of the run record's JSON layout. It changes
// whenever a field is renamed, removed or changes meaning.
const ReportSchema = 1

// Report is the run record: one self-describing value per run holding the
// resolved configuration, the results String prints and, when switched on,
// the observation sections. Sections that were off are nil and absent from
// the JSON. WriteJSON is its one writer (rairsim -record, the live
// server's /snapshot); WritePrometheus is a view of it (/metrics).
type Report struct {
	// Schema is ReportSchema.
	Schema int `json:"schema"`
	// Config is the configuration the run used with its defaults resolved:
	// mesh, layout, scheme, routing, seed, the router microarchitecture and
	// the fault seed.
	Config Config `json:"config"`
	// Workers is the tick-engine shard count the run actually used
	// (Config.Workers <= 1 collapses to one serial shard).
	Workers int `json:"workers"`
	// Cycle is the simulation cycle the record was taken at.
	Cycle int64 `json:"cycle"`
	// Results are the measured figures; nil in a mid-run publish.
	*Results `json:"results,omitempty"`
	// Telemetry holds the run-wide counter totals and, at the end of the
	// run, every router's counters and windows (Config.Telemetry).
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
	// Attribution is the per-(source app, class) latency decomposition
	// (Config.Telemetry; nil until a packet ejects).
	Attribution *telemetry.AttributionReport `json:"attribution,omitempty"`
	// Engine is the tick engine's self-profile (Config.Telemetry). It is
	// wall-clock time, the one section two identical runs disagree on.
	Engine *network.EngineProfile `json:"engine,omitempty"`
	// Faults summarizes fault-injection outcomes (Config.Faults).
	Faults *FaultReport `json:"faults,omitempty"`

	tel *telemetry.Collector
}

// Results are the measured figures of a run.
type Results struct {
	// APL is the average packet latency over all measured packets.
	APL float64 `json:"apl"`
	// PerApp maps application id to its APL.
	PerApp map[int]float64 `json:"perApp"`
	// RegionalAPL and GlobalAPL split APL by traffic kind.
	RegionalAPL float64 `json:"regionalApl"`
	GlobalAPL   float64 `json:"globalApl"`
	// Packets is the measured packet count; Throughput the delivered
	// flits per node per cycle.
	Packets    int64   `json:"packets"`
	Throughput float64 `json:"throughput"`
	// P95, P99 are latency percentiles.
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// AvgHops is the mean router-traversal count.
	AvgHops float64 `json:"avgHops"`
}

// FaultReport is the aggregated fault-injection outcome of a run: Totals
// over all links, the router stall figures, and one counter block per link
// that saw an event.
type FaultReport = faults.Report

func (r *Report) String() string {
	if r.Results == nil {
		return ""
	}
	out := fmt.Sprintf("APL %.2f cycles (p95 %.1f, p99 %.1f) over %d packets, %.3f flits/node/cycle, %.2f hops\n",
		r.APL, r.P95, r.P99, r.Packets, r.Throughput, r.AvgHops)
	apps := make([]int, 0, len(r.PerApp))
	for app := range r.PerApp {
		apps = append(apps, app)
	}
	sort.Ints(apps)
	for _, app := range apps {
		out += fmt.Sprintf("  app %d: APL %.2f\n", app, r.PerApp[app])
	}
	if r.RegionalAPL > 0 || r.GlobalAPL > 0 {
		out += fmt.Sprintf("  regional %.2f / global %.2f\n", r.RegionalAPL, r.GlobalAPL)
	}
	return out
}

// WriteJSON writes the record as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error { return obs.WriteJSON(w, r) }

// WriteChromeTrace writes the sampled flit lifecycles
// (Config.TelemetryTraceEvery) as Chrome trace_event JSON, for
// chrome://tracing or ui.perfetto.dev.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	if r.tel == nil {
		return fmt.Errorf("rair: the run collected no telemetry")
	}
	return r.tel.WriteChromeTrace(w)
}

// WritePrometheus writes the record's observation sections in Prometheus
// text exposition format, the /metrics payload. The schema is stable: the
// cycle, the aggregate interference ratio and the barrier-wait histograms
// are emitted even when their sections are absent.
func (r *Report) WritePrometheus(w io.Writer) error { return obs.WritePrometheus(w, r.walkMetrics) }

// walkMetrics is the single definition of the Prometheus view's series.
// Series of one name are emitted contiguously (Prometheus requires it).
func (r *Report) walkMetrics(emit obs.Emit) {
	emit("rair_sim_cycle", "Simulation cycle of the last snapshot.", "gauge", "", float64(r.Cycle))

	const irName = "rair_interference_ratio"
	const irHelp = "Foreign-region share of attributed stall cycles (blame accountant)."
	a := r.Attribution
	if a == nil {
		emit(irName, irHelp, "gauge", `app="all",class="all"`, 0)
	} else {
		emit(irName, irHelp, "gauge", `app="all",class="all"`, a.Total.InterferenceRatio)
		for i := range a.Rows {
			emit(irName, irHelp, "gauge", rowLabels(&a.Rows[i]), a.Rows[i].InterferenceRatio)
		}
		const dName = "rair_latency_decomp_cycles_total"
		const dHelp = "Ejected-packet latency decomposition by cause bucket."
		for i := range a.Rows {
			row := &a.Rows[i]
			l := rowLabels(row)
			emit(dName, dHelp, "counter", l+`,bucket="injectQueue"`, float64(row.InjectQueueCycles))
			emit(dName, dHelp, "counter", l+`,bucket="zeroLoad"`, float64(row.ZeroLoadCycles))
			emit(dName, dHelp, "counter", l+`,bucket="native"`, float64(row.NativeCycles))
			emit(dName, dHelp, "counter", l+`,bucket="foreign"`, float64(row.ForeignCycles))
			emit(dName, dHelp, "counter", l+`,bucket="escape"`, float64(row.EscapeCycles))
			emit(dName, dHelp, "counter", l+`,bucket="fault"`, float64(row.FaultCycles))
		}
		for i := range a.Rows {
			emit("rair_attributed_packets_total", "Ejected packets folded into the decomposition.", "counter",
				rowLabels(&a.Rows[i]), float64(a.Rows[i].Packets))
		}
	}

	if r.Telemetry != nil {
		t := &r.Telemetry.Totals
		emit("rair_link_flits_total", "Flits pushed onto output links.", "counter", "", float64(t.LinkFlits))
		emit("rair_credit_stalls_total", "SA candidates skipped for lack of a downstream credit.", "counter", "", float64(t.CreditStalls))
		emit("rair_inject_stalls_total", "Cycles an NI held a packet with no claimable VC.", "counter", "", float64(t.InjectStalls))
		const bName = "rair_blame_cycles_total"
		const bHelp = "Stalled-head cycles charged, by cause bucket."
		emit(bName, bHelp, "counter", `cause="native"`, float64(t.AttrNativeCycles))
		emit(bName, bHelp, "counter", `cause="foreign"`, float64(t.AttrForeignCycles))
		emit(bName, bHelp, "counter", `cause="escape"`, float64(t.AttrEscapeCycles))
		emit(bName, bHelp, "counter", `cause="fault"`, float64(t.AttrFaultCycles))
	}

	byPhase := map[string]*network.BarrierProfile{}
	if e := r.Engine; e != nil {
		shard := func(i int, kv string) string { return fmt.Sprintf(`shard="%d",%s`, e.Shards[i].Shard, kv) }
		const phName = "rair_engine_phase_seconds_total"
		for i := range e.Shards {
			for ph, ns := range e.Shards[i].PhaseNS {
				emit(phName, "Wall time per shard per engine phase.", "counter",
					shard(i, fmt.Sprintf("phase=%q", network.PhaseNames[ph])), float64(ns)/1e9)
			}
		}
		const tkName = "rair_engine_armed_ticks_total"
		const tkHelp = "Armed-component visits in the compute sweep."
		for i, sh := range e.Shards {
			emit(tkName, tkHelp, "counter", shard(i, `component="router"`), float64(sh.RouterTicks))
			emit(tkName, tkHelp, "counter", shard(i, `component="ni"`), float64(sh.NITicks))
		}
		const dwName = "rair_engine_dirty_wires_total"
		const dwHelp = "Wire visits in the phase-1 dirty-bitmap sweeps."
		for i, sh := range e.Shards {
			emit(dwName, dwHelp, "counter", shard(i, `kind="flit"`), float64(sh.DirtyFlitWires))
			emit(dwName, dwHelp, "counter", shard(i, `kind="credit"`), float64(sh.DirtyCredWires))
		}
		const qName = "rair_engine_quiescence_ratio"
		const qHelp = "Fraction of (node, cycle) slots skipped by the armed sweep."
		for i, sh := range e.Shards {
			emit(qName, qHelp, "gauge", shard(i, `component="router"`), sh.RouterQuiescence)
			emit(qName, qHelp, "gauge", shard(i, `component="ni"`), sh.NIQuiescence)
		}
		for i := range e.Barrier {
			byPhase[e.Barrier[i].Phase] = &e.Barrier[i]
		}
	}

	// Barrier-wait histograms, one per phase with log2-nanosecond buckets:
	// always emitted (zero-valued on serial engines or with profiling off).
	const hName = "rair_engine_barrier_wait_seconds"
	const hHelp = "Coordinator barrier drain time per phase (post-shard worker wait)."
	for _, phase := range network.PhaseNames {
		var hist []int64
		var waits, waitNS int64
		if bp := byPhase[phase]; bp != nil {
			hist, waits, waitNS = bp.Hist[:], bp.Waits, bp.WaitNS
		}
		var cum int64
		for k, c := range hist {
			cum += c
			le := float64(int64(1)<<uint(k)) / 1e9
			emit(hName+"_bucket", hHelp, "histogram", fmt.Sprintf(`phase=%q,le="%g"`, phase, le), float64(cum))
		}
		emit(hName+"_bucket", hHelp, "histogram", fmt.Sprintf(`phase=%q,le="+Inf"`, phase), float64(waits))
		emit(hName+"_sum", hHelp, "histogram", fmt.Sprintf(`phase=%q`, phase), float64(waitNS)/1e9)
		emit(hName+"_count", hHelp, "histogram", fmt.Sprintf(`phase=%q`, phase), float64(waits))
	}
}

// rowLabels renders a decomposition row's identifying labels.
func rowLabels(r *telemetry.DecompRow) string {
	return fmt.Sprintf(`app="%d",class=%q`, r.App, msg.Class(r.Class).String())
}
