package rair

import (
	"fmt"
	"io"
	"sort"

	"rair/internal/network"
	"rair/internal/obs"
	"rair/internal/telemetry"
)

// ReportSchema is the version of the run record's JSON layout. It changes
// whenever a field is renamed, removed or changes meaning.
const ReportSchema = 3

// Report is the run record: one self-describing value per run holding the
// resolved configuration, the results String prints and, when switched on,
// the observation sections. Sections that were off are nil and absent from
// the JSON. WriteJSON is its one writer (rairsim -record).
type Report struct {
	// Schema is ReportSchema.
	Schema int `json:"schema"`
	// Config is the configuration the run used with its defaults resolved:
	// mesh, layout, scheme, routing, seed and the router
	// microarchitecture.
	Config Config `json:"config"`
	// Workers is the tick-engine shard count the run actually used
	// (Config.Workers <= 1 collapses to one serial shard).
	Workers int `json:"workers"`
	// Cycle is the simulation cycle the run ended at.
	Cycle int64 `json:"cycle"`
	// Results are the measured figures.
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
