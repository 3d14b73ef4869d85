package telemetry

// Report is the aggregated outcome of one instrumented run: run-wide
// counter totals plus the per-router counter blocks and window series. It
// is the telemetry section of the run record (rair.Report); the record
// carries the attribution report beside it.
type Report struct {
	// Window is the sampling window in cycles; Cycles the last cycle the
	// collector observed.
	Window int64 `json:"window"`
	Cycles int64 `json:"cycles"`
	// TraceEvery echoes the lifecycle sampling stride (0 = off);
	// TraceEvents/TraceDropped count retained and capped events.
	TraceEvery   uint64 `json:"traceEvery,omitempty"`
	TraceEvents  int    `json:"traceEvents,omitempty"`
	TraceDropped int64  `json:"traceDropped,omitempty"`

	Totals  Counters       `json:"totals"`
	Routers []RouterReport `json:"routers,omitempty"`
}

// RouterReport is one node's slice of the report.
type RouterReport struct {
	Node     int            `json:"node"`
	App      int            `json:"app"`
	Counters Counters       `json:"counters"`
	Windows  []WindowSample `json:"windows,omitempty"`
}

// Report builds the report: the header, the totals and every probe's
// counters and windows.
func (c *Collector) Report() *Report {
	r := &Report{Window: c.cfg.Window, Cycles: c.now, TraceEvery: c.cfg.TraceEvery, Totals: c.Totals()}
	for _, p := range c.probes {
		if p == nil {
			continue
		}
		r.TraceEvents += len(p.events)
		r.TraceDropped += p.dropped
		r.Routers = append(r.Routers, RouterReport{
			Node: p.node, App: p.app, Counters: p.Counters(), Windows: p.Windows(),
		})
	}
	return r
}
