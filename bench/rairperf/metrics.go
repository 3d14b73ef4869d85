package main

import (
	"rair/internal/telemetry"
)

// metricDef declares a metric as BENCHMARK.json does. Host metrics time the
// simulator; sim metrics are what the modelled NoC does, and repeat exactly
// for a seed.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator sees. An untraced run of every
// workload reports all of them. Bound is the share of the baseline's median
// by which the metric may worsen.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"sim_cycles_per_s", "cycles/s", higher, 0.25},
	{"host_live_heap_mb", "MB", lower, 0.10},
	{"host_allocs_per_kcycle", "count", lower, 0.25},
	{"paper_gap_pp", "pp", lower, 0.10},
}

// blameSchemes are the legs of the attribution run.
var blameSchemes = []string{schemeRORR, schemeRAIR}

// perLayer is the traced run's budget, one prefix per module. A metric that
// has no meaning on a workload (memsys.* off parsec8, sim.* off the panel)
// reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "traffic.tick_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "traffic.packets_per_kcycle", Unit: "count", Better: higher},
		{Name: "traffic.saturation_calib_s", Unit: "s", Better: lower},
		{Name: "memsys.tick_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "memsys.eject_ns_per_packet", Unit: "ns", Better: lower},
		{Name: "memsys.prewarm_s", Unit: "s", Better: lower},
		{Name: "memsys.l1_miss_rate", Unit: "ratio", Better: lower},
		{Name: "memsys.outstanding_end", Unit: "count", Better: lower},
		{Name: "network.tick_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "network.links_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "network.compute_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "network.cong_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "network.self_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "network.router_quiescence", Unit: "ratio", Better: higher},
		{Name: "network.ni_quiescence", Unit: "ratio", Better: higher},
		{Name: "network.barrier_wait_ns_per_cycle", Unit: "ns", Better: lower},
		{Name: "network.shard_imbalance", Unit: "ratio", Better: lower},
		{Name: "network.parallel_efficiency", Unit: "ratio", Better: higher},
	}
	for _, suffix := range append([]string{""}, panelSchemes...) {
		if suffix != "" {
			suffix = "." + suffix
		}
		defs = append(defs,
			metricDef{Name: "router.compute_ns_per_armed_tick" + suffix, Unit: "ns", Better: lower},
			metricDef{Name: "router.armed_ticks_per_cycle" + suffix, Unit: "count", Better: lower},
			metricDef{Name: "router.fastpath_share" + suffix, Unit: "ratio", Better: higher},
			metricDef{Name: "router.ni_tick_share" + suffix, Unit: "ratio", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "router.locality_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "link.ns_per_wire_visit", Unit: "ns", Better: lower},
		metricDef{Name: "link.wire_visits_per_cycle", Unit: "count", Better: lower},
		metricDef{Name: "link.locality_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "routing.cong_ns_per_router_cycle", Unit: "ns", Better: lower},
		metricDef{Name: "stats.eject_ns_per_packet", Unit: "ns", Better: lower},
		metricDef{Name: "stats.report_s", Unit: "s", Better: lower},
		metricDef{Name: "engine.ns_per_router_cycle", Unit: "ns", Better: lower},
		metricDef{Name: "engine.ns_per_flit_hop", Unit: "ns", Better: lower},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "host.speed", Unit: "ratio", Better: higher},
		metricDef{Name: "host.raw_cycles_per_s", Unit: "cycles/s", Better: higher},
		metricDef{Name: "host.peak_rss_mb", Unit: "MB", Better: lower},
	)
	for _, s := range panelSchemes[1:] {
		defs = append(defs, metricDef{Name: "sim.apl_reduction_pct." + s, Unit: "%", Better: higher})
	}
	for _, s := range blameSchemes {
		defs = append(defs,
			metricDef{Name: "sim.apl_cycles." + s, Unit: "cycles", Better: lower},
			metricDef{Name: "sim.p99_cycles." + s, Unit: "cycles", Better: lower},
			metricDef{Name: "sim.blame_foreign_cycles_per_pkt." + s, Unit: "cycles", Better: lower},
			metricDef{Name: "sim.blame_native_cycles_per_pkt." + s, Unit: "cycles", Better: lower},
			metricDef{Name: "sim.blame_escape_cycles_per_pkt." + s, Unit: "cycles", Better: lower},
			metricDef{Name: "sim.inject_queue_cycles_per_pkt." + s, Unit: "cycles", Better: lower},
			metricDef{Name: "sim.msp_foreign_deny_share." + s, Unit: "ratio", Better: higher},
			metricDef{Name: "sim.credit_stalls_per_kcycle." + s, Unit: "count", Better: lower})
	}
	return append(defs, metricDef{Name: "sim.dpa_transitions_per_kcycle", Unit: "count", Better: lower})
}()

// Metrics that need a second run, and what they are made of; summarize
// fills them in.
const (
	mTraceOverhead  = "trace.overhead_pct"
	mRouterLocality = "router.locality_ratio"
	mLinkLocality   = "link.locality_ratio"
	mParallelEff    = "network.parallel_efficiency"
	mComputePerTick = "router.compute_ns_per_armed_tick"
	mLinkPerVisit   = "link.ns_per_wire_visit"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues fills every per-layer metric a traced run can yield alone.
func layerValues(rec *runRecord, w *workload) {
	v := rec.Values
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	var tot legTotals
	for i := range rec.Legs {
		lr := &rec.Legs[i]
		lt := totalsOf(lr, rec.HostSpeed)
		tot.add(lt)
		if len(rec.Legs) > 1 {
			lt.routerValues(v, "."+lr.Scheme)
		}
	}
	tot.routerValues(v, "")

	cycles := float64(tot.cycles)
	v["traffic.tick_ns_per_cycle"] = float64(tot.span[spanTrafficTick].BusyNS) / cycles
	v["traffic.saturation_calib_s"] = rec.SatCalibS
	v["memsys.tick_ns_per_cycle"] = float64(tot.span[spanMemsysTick].BusyNS) / cycles
	v["memsys.eject_ns_per_packet"] = ratio(float64(tot.span[spanMemsysEject].BusyNS), float64(tot.span[spanMemsysEject].Calls))
	v["memsys.prewarm_s"] = rec.PrewarmS
	if w.parsec {
		st := rec.Legs[0].Memsys
		v["memsys.l1_miss_rate"] = ratio(float64(st.L1Misses), float64(st.L1Hits+st.L1Misses))
		v["memsys.outstanding_end"] = float64(rec.Legs[0].OutstandingEnd)
	} else {
		v["traffic.packets_per_kcycle"] = 1000 * float64(tot.windowPackets) / cycles
	}

	tick := float64(tot.span[spanNetworkTick].BusyNS)
	eject := float64(tot.span[spanStatsEject].BusyNS + tot.span[spanMemsysEject].BusyNS)
	v["network.tick_ns_per_cycle"] = tick / cycles
	v["network.links_ns_per_cycle"] = float64(tot.linksNS) / cycles
	v["network.compute_ns_per_cycle"] = float64(tot.computeNS) / cycles
	v["network.cong_ns_per_cycle"] = float64(tot.congNS) / cycles
	v["network.self_ns_per_cycle"] = (tick - float64(tot.slowestNS) - eject) / cycles
	slots := float64(tot.nodes) * cycles
	v["network.router_quiescence"] = 1 - float64(tot.routerTicks)/slots
	v["network.ni_quiescence"] = 1 - float64(tot.niTicks)/slots
	v["network.barrier_wait_ns_per_cycle"] = float64(tot.barrierNS) / cycles
	v["network.shard_imbalance"] = ratio(float64(tot.slowestComputeNS)*float64(w.workers), float64(tot.computeNS))

	visits := float64(tot.wireVisits)
	v[mLinkPerVisit] = ratio(float64(tot.linksNS), visits)
	v["link.wire_visits_per_cycle"] = visits / cycles
	v["routing.cong_ns_per_router_cycle"] = ratio(float64(tot.congNS), float64(tot.nodes)*float64(tot.congCycles))
	v["stats.eject_ns_per_packet"] = ratio(float64(tot.span[spanStatsEject].BusyNS), float64(tot.span[spanStatsEject].Calls))
	v["stats.report_s"] = tot.reportS
	v["engine.ns_per_router_cycle"] = 1e9 * tot.wallS / slots
	v["engine.ns_per_flit_hop"] = ratio(1e9*tot.wallS, float64(tot.flitHops))

	v["host.speed"] = rec.HostSpeed
	v["host.raw_cycles_per_s"] = rec.RawCyclesPerS
	v["host.peak_rss_mb"] = rec.PeakRSSMB
	for s, r := range reductions(rec.Legs) {
		v["sim.apl_reduction_pct."+s] = r
	}
	for _, b := range rec.Blame {
		b.values(v)
	}
}

// legTotals sums what the traced legs of a run counted.
type legTotals struct {
	cycles, congCycles, flitHops int64
	windowPackets                int64
	nodes                        int
	wallS, reportS               float64
	span                         [numSpans]spanTotal

	linksNS, computeNS, congNS  int64
	slowestNS, slowestComputeNS int64
	barrierNS                   int64
	routerTicks, niTicks        int64
	fastPathTicks, wireVisits   int64
}

// totalsOf sums a traced leg. Host times are scaled by the run's host speed,
// so that they read as at speed 1 like the end-to-end metrics.
func totalsOf(lr *legRecord, speed float64) legTotals {
	t := legTotals{cycles: lr.Cycles, nodes: lr.nodes, wallS: lr.WallAt1S, reportS: lr.ReportS * speed,
		flitHops: lr.FlitHops, windowPackets: lr.WindowPackets}
	at := func(ns int64) int64 { return int64(float64(ns) * speed) }
	for s := range t.span {
		t.span[s] = lr.Spans[spanNames[s]]
		t.span[s].BusyNS = at(t.span[s].BusyNS)
	}
	e := lr.Engine
	t.linksNS, _ = e.phase("links")
	t.computeNS, t.slowestComputeNS = e.phase("compute")
	t.congNS, _ = e.phase("congFill", "congSwap")
	_, t.slowestNS = e.phase("links", "compute", "congFill", "congSwap")
	t.linksNS, t.computeNS, t.slowestComputeNS = at(t.linksNS), at(t.computeNS), at(t.slowestComputeNS)
	t.congNS, t.slowestNS, t.barrierNS = at(t.congNS), at(t.slowestNS), at(e.BarrierWaitNS)
	if lr.cong {
		t.congCycles = lr.Cycles
	}
	for _, sh := range e.Shards {
		t.routerTicks += sh.RouterTicks
		t.niTicks += sh.NITicks
		t.fastPathTicks += sh.FastPathTicks
		t.wireVisits += sh.DirtyFlitWires + sh.DirtyCredWires
	}
	return t
}

func (t *legTotals) add(o legTotals) {
	t.cycles += o.cycles
	t.congCycles += o.congCycles
	t.flitHops += o.flitHops
	t.windowPackets += o.windowPackets
	t.nodes = o.nodes
	t.wallS += o.wallS
	t.reportS += o.reportS
	for s := range t.span {
		t.span[s].BusyNS += o.span[s].BusyNS
		t.span[s].Calls += o.span[s].Calls
	}
	t.linksNS += o.linksNS
	t.computeNS += o.computeNS
	t.congNS += o.congNS
	t.slowestNS += o.slowestNS
	t.slowestComputeNS += o.slowestComputeNS
	t.barrierNS += o.barrierNS
	t.routerTicks += o.routerTicks
	t.niTicks += o.niTicks
	t.fastPathTicks += o.fastPathTicks
	t.wireVisits += o.wireVisits
}

func (t *legTotals) routerValues(v map[string]float64, suffix string) {
	armed := float64(t.routerTicks + t.niTicks)
	v[mComputePerTick+suffix] = ratio(float64(t.computeNS), armed)
	v["router.armed_ticks_per_cycle"+suffix] = armed / float64(t.cycles)
	v["router.fastpath_share"+suffix] = ratio(float64(t.fastPathTicks), float64(t.routerTicks))
	v["router.ni_tick_share"+suffix] = ratio(float64(t.niTicks), armed)
}

// legBlame is one leg of the attribution run: the panel scenario under one
// scheme with telemetry and the blame accountant on. Counters cover the
// whole leg, warm-up and drain included.
type legBlame struct {
	Scheme   string             `json:"scheme"`
	Cycles   int64              `json:"cycles"`
	APL      float64            `json:"apl_cycles"`
	P99      float64            `json:"p99_cycles"`
	Total    telemetry.Decomp   `json:"decomposition"`
	Counters telemetry.Counters `json:"counters"`
}

// blameLegs reruns RO_RR and RA_RAIR with telemetry and attribution on.
// Both observe only, so each digest must equal the untraced leg's.
func blameLegs(rec *runRecord, w *workload, sc *scenario) {
	for _, scheme := range blameSchemes {
		l := newLeg(w, sc, scheme, rec.Seed, rec.Sizes, legOpts{workers: w.workers, telemetry: true}, &buildTimes{})
		var scratch runRecord
		lr := l.run(&scratch, rec.Sizes, backlogSamples)
		l.net.Close()
		rec.Failures = append(rec.Failures, scratch.Failures...)
		for _, plain := range rec.Legs {
			if plain.Scheme == scheme && plain.Digest != lr.Digest {
				rec.failf("%s: digest %s with telemetry on, %s off", scheme, lr.Digest, plain.Digest)
			}
		}
		b := legBlame{Scheme: scheme, Cycles: rec.Sizes.Warmup + rec.Sizes.Timed + lr.DrainCycles,
			APL: lr.APL, P99: lr.P99, Counters: l.tel.Totals()}
		if rep := l.tel.Attribution(); rep != nil {
			if err := rep.Conservation(); err != nil {
				rec.failf("%s: %v", scheme, err)
			}
			b.Total = rep.Total.Decomp
		}
		rec.Blame = append(rec.Blame, b)
	}
}

func (b legBlame) values(v map[string]float64) {
	s := "." + b.Scheme
	pkts := float64(b.Total.Packets)
	kcycles := float64(b.Cycles) / 1000
	c := b.Counters
	v["sim.apl_cycles"+s] = b.APL
	v["sim.p99_cycles"+s] = b.P99
	v["sim.blame_foreign_cycles_per_pkt"+s] = ratio(float64(b.Total.ForeignCycles), pkts)
	v["sim.blame_native_cycles_per_pkt"+s] = ratio(float64(b.Total.NativeCycles), pkts)
	v["sim.blame_escape_cycles_per_pkt"+s] = ratio(float64(b.Total.EscapeCycles), pkts)
	v["sim.inject_queue_cycles_per_pkt"+s] = ratio(float64(b.Total.InjectQueueCycles), pkts)
	denies := float64(c.VADenyForeign + c.SAInDenyForeign + c.SAOutDenyForeign)
	grants := float64(c.VAGrantForeign + c.SAInGrantForeign + c.SAOutGrantForeign)
	v["sim.msp_foreign_deny_share"+s] = ratio(denies, denies+grants)
	v["sim.credit_stalls_per_kcycle"+s] = float64(c.CreditStalls) / kcycles
	if b.Scheme == schemeRAIR {
		v["sim.dpa_transitions_per_kcycle"] = float64(c.DPAToNativeHigh+c.DPAToForeignHigh) / kcycles
	}
}
