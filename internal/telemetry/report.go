package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the aggregated outcome of one instrumented run: run-wide
// counter totals plus the per-router counter blocks and window series.
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
	Routers []RouterReport `json:"routers"`

	// Attribution is the per-(source app, class) latency decomposition;
	// nil unless Config.Attribution was on and packets ejected.
	Attribution *AttributionReport `json:"attribution,omitempty"`
}

// RouterReport is one node's slice of the report.
type RouterReport struct {
	Node     int            `json:"node"`
	App      int            `json:"app"`
	Counters Counters       `json:"counters"`
	Windows  []WindowSample `json:"windows,omitempty"`
}

// Report builds the aggregated report from the collector's probes.
func (c *Collector) Report() *Report {
	r := &Report{Window: c.cfg.Window, Cycles: c.now, TraceEvery: c.cfg.TraceEvery}
	for _, p := range c.probes {
		if p == nil {
			continue
		}
		cnt := p.Counters()
		r.Totals.add(&cnt)
		r.TraceEvents += len(p.events)
		r.TraceDropped += p.dropped
		r.Routers = append(r.Routers, RouterReport{
			Node: p.node, App: p.app, Counters: cnt, Windows: p.Windows(),
		})
	}
	r.Attribution = c.Attribution()
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the per-router counter blocks as CSV, one row per router
// plus a totals row (window series are JSON-only; see WriteJSON).
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "node,app,vaGrantNative,vaGrantForeign,vaDenyNative,vaDenyForeign,"+
		"saInGrantNative,saInGrantForeign,saInDenyNative,saInDenyForeign,"+
		"saOutGrantNative,saOutGrantForeign,saOutDenyNative,saOutDenyForeign,"+
		"dpaToNativeHigh,dpaToForeignHigh,creditStalls,injectStalls,linkFlits,"+
		"faultDroppedFlits,faultCorruptedFlits,faultRetransmits,faultLostFlits,"+
		"faultCreditLeaks,faultReconciledCredits,faultStallCycles,"+
		"attrNativeCycles,attrForeignCycles,attrEscapeCycles,attrFaultCycles"); err != nil {
		return err
	}
	row := func(label string, app int, c *Counters) error {
		_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			label, app,
			c.VAGrantNative, c.VAGrantForeign, c.VADenyNative, c.VADenyForeign,
			c.SAInGrantNative, c.SAInGrantForeign, c.SAInDenyNative, c.SAInDenyForeign,
			c.SAOutGrantNative, c.SAOutGrantForeign, c.SAOutDenyNative, c.SAOutDenyForeign,
			c.DPAToNativeHigh, c.DPAToForeignHigh, c.CreditStalls, c.InjectStalls, c.LinkFlits,
			c.FaultDroppedFlits, c.FaultCorruptedFlits, c.FaultRetransmits, c.FaultLostFlits,
			c.FaultCreditLeaks, c.FaultReconciledCredits, c.FaultStallCycles,
			c.AttrNativeCycles, c.AttrForeignCycles, c.AttrEscapeCycles, c.AttrFaultCycles)
		return err
	}
	for i := range r.Routers {
		rr := &r.Routers[i]
		if err := row(fmt.Sprint(rr.Node), rr.App, &rr.Counters); err != nil {
			return err
		}
	}
	return row("total", -1, &r.Totals)
}
