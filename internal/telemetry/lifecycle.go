package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// Stage identifies a point in a flit's lifecycle. Router stages are
// recorded at completion: StageRC is the cycle route computation ran,
// StageVA the cycle the VC allocation was granted, StageSA the cycle the
// head flit won switch allocation (latching into the ST register), and
// StageST the cycle the flit left on the output link. StageInject and
// StageEject are NI instants.
type Stage uint8

// Lifecycle stages in pipeline order.
const (
	StageInject Stage = iota
	StageRC
	StageVA
	StageSA
	StageST
	StageEject
	numStages
)

var stageNames = [numStages]string{"Inject", "RC", "VA", "SA", "ST", "Eject"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "Stage(?)"
}

// Event is one lifecycle point of a traced packet at one node.
type Event struct {
	Pkt   uint64
	Node  int32
	Stage Stage
	Cycle int64
}

// Traced reports whether packet id is sampled for lifecycle tracing. It is
// nil-safe and allocation-free so callers can use it as the sole hot-path
// guard.
func (p *Probe) Traced(id uint64) bool {
	return p != nil && p.col.cfg.TraceEvery != 0 && id%p.col.cfg.TraceEvery == 0
}

// Lifecycle records a lifecycle event for a traced packet. Callers should
// gate on Traced first; the method re-checks nothing beyond the nil guard
// and the per-node cap.
func (p *Probe) Lifecycle(id uint64, s Stage, cycle int64) {
	if p == nil {
		return
	}
	if len(p.events) >= p.col.cfg.TraceCap {
		p.dropped++
		return
	}
	p.events = append(p.events, Event{Pkt: id, Node: int32(p.node), Stage: s, Cycle: cycle})
}

// mergedEvents gathers every probe's lifecycle events sorted by
// (packet, cycle, stage) — a deterministic order independent of shard
// count, since per-probe buffers are already cycle-ordered.
func (c *Collector) mergedEvents() []Event {
	var all []Event
	for _, p := range c.probes {
		if p != nil {
			all = append(all, p.events...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pkt != b.Pkt {
			return a.Pkt < b.Pkt
		}
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Stage < b.Stage
	})
	return all
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// "X" complete events carry ts+dur; "i" instant events mark points. One
// simulated cycle maps to one microsecond, packets map to pids and nodes
// to tids, so a trace viewer shows one track per router hop under each
// sampled packet.
type chromeEvent struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Phase string `json:"ph"`
	TS    int64  `json:"ts"`
	Dur   int64  `json:"dur,omitempty"`
	PID   uint64 `json:"pid"`
	TID   int64  `json:"tid"`
	Scope string `json:"s,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports every sampled packet's lifecycle as Chrome
// trace_event JSON, loadable in chrome://tracing or https://ui.perfetto.dev.
// Per hop it derives one span per pipeline stage: RC occupies the arrival
// cycle, and each later stage spans from the previous stage's completion to
// its own, with link traversal (LT) bridging hops.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	events := c.mergedEvents()
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	span := func(name string, e Event, ts, dur int64, tid int64) {
		if dur < 1 {
			dur = 1
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Cat: "pipeline", Phase: "X", TS: ts, Dur: dur,
			PID: e.Pkt, TID: tid,
		})
	}
	for i, e := range events {
		switch e.Stage {
		case StageInject, StageEject:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Stage.String(), Cat: "ni", Phase: "i", TS: e.Cycle,
				PID: e.Pkt, TID: int64(e.Node), Scope: "p",
			})
		case StageRC:
			// RC runs in the arrival cycle.
			span("RC", e, e.Cycle, 1, int64(e.Node))
		default:
			// VA/SA/ST span from the previous stage's completion at the
			// same node to this stage's completion.
			if i == 0 {
				continue
			}
			prev := events[i-1]
			if prev.Pkt != e.Pkt || prev.Node != e.Node {
				continue
			}
			span(e.Stage.String(), e, prev.Cycle+1, e.Cycle-prev.Cycle, int64(e.Node))
			// A completed ST followed by the next hop's RC is the link
			// traversal; draw it on the sending node's track.
			if e.Stage == StageST && i+1 < len(events) {
				next := events[i+1]
				if next.Pkt == e.Pkt && next.Stage == StageRC {
					span("LT", e, e.Cycle+1, next.Cycle-e.Cycle, int64(e.Node))
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
