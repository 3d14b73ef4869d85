// Package obs is the export surface of the observability layer: it bundles
// the telemetry collector's counter totals and interference attribution and
// the tick engine's self-profile into one Snapshot, and serializes snapshots
// as Prometheus text exposition, indented JSON, or flat CSV. A small HTTP
// listener (server.go)
// serves the latest snapshot live at /metrics and /snapshot — the first
// concrete slice of the simulation-as-a-service telemetry-streaming story.
//
// The package only ever reads data the simulation layers already produced
// on the coordinating goroutine; it holds no probes and cannot perturb a
// run.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/telemetry"
)

// Snapshot is one self-consistent observability capture. Any section may be
// nil (telemetry off, profiling off); writers emit what is
// present plus the always-present core series (cycle, interference ratio,
// barrier-wait histogram) so scrapers see a stable schema.
type Snapshot struct {
	// Cycle is the simulation cycle the snapshot was taken at.
	Cycle int64 `json:"cycle"`

	// Totals is the run-wide telemetry counter block.
	Totals *telemetry.Counters `json:"totals,omitempty"`

	// Attribution is the per-(source app, class) latency decomposition
	// with interference ratios; nil until attribution is on and packets
	// have ejected.
	Attribution *telemetry.AttributionReport `json:"attribution,omitempty"`

	// Engine is the tick engine's self-profile (Params.Profile).
	Engine *network.EngineProfile `json:"engine,omitempty"`
}

// Snap captures a snapshot at cycle from whichever sources are live. Call
// on the goroutine driving the simulation (between ticks or after the
// run); both sources are coordinator-owned there.
func Snap(cycle int64, tel *telemetry.Collector, prof *network.EngineProfile) *Snapshot {
	s := &Snapshot{Cycle: cycle, Engine: prof}
	if tel != nil {
		t := tel.Totals()
		s.Totals = &t
		s.Attribution = tel.Attribution()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (the /snapshot payload and
// the -obs-report format for .json paths).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot to path: flat CSV when the path ends in
// .csv, indented JSON otherwise (the -obs-report convention).
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = s.WriteCSV(f)
	} else {
		err = s.WriteJSON(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// WriteCSV writes the snapshot as flat name,labels,value rows — the same
// series the Prometheus exposition carries, in a spreadsheet-friendly
// shape (the -obs-report format for .csv paths).
func (s *Snapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "metric,labels,value"); err != nil {
		return err
	}
	var err error
	emit := func(name, labels string, v float64) {
		if err == nil {
			_, err = fmt.Fprintf(w, "%s,%s,%s\n", name, labels, fmtFloat(v))
		}
	}
	s.walk(emit)
	return err
}

// WritePrometheus writes the snapshot in Prometheus text exposition format
// (version 0.0.4) — the /metrics payload.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	header := func(name, help, typ string) {
		if err == nil {
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
	}
	emit := func(name, labels string, v float64) {
		if err != nil {
			return
		}
		if labels == "" {
			_, err = fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
		} else {
			_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, fmtFloat(v))
		}
	}
	lastFamily := ""
	s.walkWithMeta(func(name, help, typ, labels string, v float64) {
		// Histogram series share one metric family: headers go on the base
		// name, once, with the _bucket/_sum/_count lines grouped under it.
		family := name
		if typ == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suf)
			}
		}
		if family != lastFamily {
			header(family, help, typ)
			lastFamily = family
		}
		emit(name, labels, v)
	})
	return err
}

// fmtFloat renders a metric value: integral values without an exponent,
// everything else in Go's shortest form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// walk emits every series as (name, labels, value), for writers that don't
// need HELP/TYPE metadata.
func (s *Snapshot) walk(emit func(name, labels string, v float64)) {
	s.walkWithMeta(func(name, _, _, labels string, v float64) { emit(name, labels, v) })
}

// walkWithMeta is the single definition of the snapshot's metric schema.
// Series of one name are emitted contiguously (Prometheus requires it).
func (s *Snapshot) walkWithMeta(emit func(name, help, typ, labels string, v float64)) {
	emit("rair_sim_cycle", "Simulation cycle of the last snapshot.", "gauge", "", float64(s.Cycle))

	// Interference ratio: always present so scrapers can rely on it; the
	// aggregate row is app="all" and per-(source app, class) rows follow.
	const irName = "rair_interference_ratio"
	const irHelp = "Foreign-region share of attributed stall cycles (blame accountant)."
	if a := s.Attribution; a != nil {
		emit(irName, irHelp, "gauge", `app="all",class="all"`, a.Total.InterferenceRatio)
		for i := range a.Rows {
			r := &a.Rows[i]
			emit(irName, irHelp, "gauge", rowLabels(r), r.InterferenceRatio)
		}
	} else {
		emit(irName, irHelp, "gauge", `app="all",class="all"`, 0)
	}

	if a := s.Attribution; a != nil {
		const dName = "rair_latency_decomp_cycles_total"
		const dHelp = "Ejected-packet latency decomposition by cause bucket."
		for i := range a.Rows {
			r := &a.Rows[i]
			l := rowLabels(r)
			emit(dName, dHelp, "counter", l+`,bucket="injectQueue"`, float64(r.InjectQueueCycles))
			emit(dName, dHelp, "counter", l+`,bucket="zeroLoad"`, float64(r.ZeroLoadCycles))
			emit(dName, dHelp, "counter", l+`,bucket="native"`, float64(r.NativeCycles))
			emit(dName, dHelp, "counter", l+`,bucket="foreign"`, float64(r.ForeignCycles))
			emit(dName, dHelp, "counter", l+`,bucket="escape"`, float64(r.EscapeCycles))
			emit(dName, dHelp, "counter", l+`,bucket="fault"`, float64(r.FaultCycles))
		}
		const pName = "rair_attributed_packets_total"
		for i := range a.Rows {
			r := &a.Rows[i]
			emit(pName, "Ejected packets folded into the decomposition.", "counter", rowLabels(r), float64(r.Packets))
		}
	}

	if t := s.Totals; t != nil {
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

	if e := s.Engine; e != nil {
		const phName = "rair_engine_phase_seconds_total"
		const phHelp = "Wall time per shard per engine phase."
		for i := range e.Shards {
			sh := &e.Shards[i]
			for ph, ns := range sh.PhaseNS {
				emit(phName, phHelp, "counter",
					fmt.Sprintf(`shard="%d",phase=%q`, sh.Shard, network.PhaseNames[ph]), float64(ns)/1e9)
			}
		}
		const tkName = "rair_engine_armed_ticks_total"
		const tkHelp = "Armed-component visits in the compute sweep."
		for i := range e.Shards {
			sh := &e.Shards[i]
			emit(tkName, tkHelp, "counter", fmt.Sprintf(`shard="%d",component="router"`, sh.Shard), float64(sh.RouterTicks))
			emit(tkName, tkHelp, "counter", fmt.Sprintf(`shard="%d",component="ni"`, sh.Shard), float64(sh.NITicks))
		}
		const dwName = "rair_engine_dirty_wires_total"
		const dwHelp = "Wire visits in the phase-1 dirty-bitmap sweeps."
		for i := range e.Shards {
			sh := &e.Shards[i]
			emit(dwName, dwHelp, "counter", fmt.Sprintf(`shard="%d",kind="flit"`, sh.Shard), float64(sh.DirtyFlitWires))
			emit(dwName, dwHelp, "counter", fmt.Sprintf(`shard="%d",kind="credit"`, sh.Shard), float64(sh.DirtyCredWires))
		}
		const qName = "rair_engine_quiescence_ratio"
		const qHelp = "Fraction of (node, cycle) slots skipped by the armed sweep."
		for i := range e.Shards {
			sh := &e.Shards[i]
			emit(qName, qHelp, "gauge", fmt.Sprintf(`shard="%d",component="router"`, sh.Shard), sh.RouterQuiescence)
			emit(qName, qHelp, "gauge", fmt.Sprintf(`shard="%d",component="ni"`, sh.Shard), sh.NIQuiescence)
		}
	}

	// Barrier-wait histogram: always emitted (zero-valued on serial
	// engines or with profiling off) so the series is a stable part of the
	// schema.
	s.walkBarriers(emit)

}

// walkBarriers emits the coordinator barrier-wait series as a cumulative
// Prometheus histogram, one per phase, with log2-nanosecond buckets.
func (s *Snapshot) walkBarriers(emit func(name, help, typ, labels string, v float64)) {
	const hName = "rair_engine_barrier_wait_seconds"
	const hHelp = "Coordinator barrier drain time per phase (post-shard worker wait)."
	byPhase := map[string]*network.BarrierProfile{}
	if s.Engine != nil {
		for i := range s.Engine.Barrier {
			byPhase[s.Engine.Barrier[i].Phase] = &s.Engine.Barrier[i]
		}
	}
	for _, phase := range network.PhaseNames {
		bp := byPhase[phase]
		var cum int64
		var hist []int64
		var waits, waitNS int64
		if bp != nil {
			hist, waits, waitNS = bp.Hist[:], bp.Waits, bp.WaitNS
		}
		for k, c := range hist {
			cum += c
			le := float64(int64(1)<<uint(k)) / 1e9
			emit(hName+"_bucket", hHelp, "histogram",
				fmt.Sprintf(`phase=%q,le="%g"`, phase, le), float64(cum))
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
