// Package telemetry is the per-router instrumentation layer: monotonic
// counters for the arbitration decisions the paper's mechanisms live in
// (MSP grants/denials split by native/foreign traffic, DPA priority
// transitions, credit and injection stalls, link-flit counts), windowed
// time-series of VC occupancy and link utilization, and an opt-in
// flit-lifecycle trace exportable as Chrome trace_event JSON.
//
// The layer is zero-cost when disabled: components hold a *Probe that is
// nil when telemetry is off and guard every hot-path call on it, and every
// Probe method is additionally nil-receiver-safe so a stray unguarded call
// still costs no allocation (asserted by TestNilProbeCallsAllocateNothing).
//
// Shard safety in the parallel tick engine comes from ownership, not
// locking: one Probe belongs to one node, a node's router and NI belong to
// exactly one shard, and probes are only written during the engine's
// compute/link phases by that owning shard. Cross-router aggregation (the
// window sampler, report building, trace export) runs on the coordinating
// goroutine between or after barriers, so results are bit-identical across
// worker counts.
package telemetry

import "rair/internal/msg"

// DefaultWindow is the time-series sampling window in cycles when
// Config.Window is zero; the rair facade always samples at it.
const DefaultWindow = 256

// Config parameterizes a Collector.
type Config struct {
	// Window is the time-series sampling window in cycles (default
	// DefaultWindow).
	Window int64
	// WindowCap bounds the per-router sample ring; older windows are
	// overwritten once the ring is full (default 4096).
	WindowCap int
	// TraceEvery samples every N-th packet (by packet ID) for
	// flit-lifecycle tracing; 0 disables tracing.
	TraceEvery uint64
	// TraceCap bounds the lifecycle events retained per node; events
	// beyond it are counted as dropped (default 65536).
	TraceCap int
	// Attribution enables the per-flit blame accountant (stalled-head
	// cycle charging and per-(source app, class) latency decompositions;
	// see attribution.go). Off by default: routers cache the flag at
	// wiring time and skip every charge site when it is false.
	Attribution bool
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.WindowCap <= 0 {
		c.WindowCap = 4096
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 1 << 16
	}
	return c
}

// Counters are the monotonic per-router event counts. Grant/deny pairs
// cover the three MSP-prioritized arbitration steps (Section IV.B): the VA
// output arbitration and the SA input and output arbitrations, each split
// by the requestor's native/foreign status at the counting router.
type Counters struct {
	// VA output arbitration (step 1 of MSP).
	VAGrantNative  int64 `json:"vaGrantNative"`
	VAGrantForeign int64 `json:"vaGrantForeign"`
	VADenyNative   int64 `json:"vaDenyNative"`
	VADenyForeign  int64 `json:"vaDenyForeign"`
	// SA input arbitration (step 2).
	SAInGrantNative  int64 `json:"saInGrantNative"`
	SAInGrantForeign int64 `json:"saInGrantForeign"`
	SAInDenyNative   int64 `json:"saInDenyNative"`
	SAInDenyForeign  int64 `json:"saInDenyForeign"`
	// SA output arbitration (step 3).
	SAOutGrantNative  int64 `json:"saOutGrantNative"`
	SAOutGrantForeign int64 `json:"saOutGrantForeign"`
	SAOutDenyNative   int64 `json:"saOutDenyNative"`
	SAOutDenyForeign  int64 `json:"saOutDenyForeign"`
	// DPA state transitions (Section IV.C), split by direction.
	DPAToNativeHigh  int64 `json:"dpaToNativeHigh"`
	DPAToForeignHigh int64 `json:"dpaToForeignHigh"`
	// CreditStalls counts SA candidates skipped for lack of a downstream
	// credit; InjectStalls counts cycles an NI class queue held a packet
	// but no local-input VC could be claimed (buffer-full injection).
	CreditStalls int64 `json:"creditStalls"`
	InjectStalls int64 `json:"injectStalls"`
	// LinkFlits counts flits pushed onto the router's output links.
	LinkFlits int64 `json:"linkFlits"`
	// Fault-injection events (internal/faults), attributed to the node that
	// owns the affected side of the link: drop/corrupt/retransmit/lost to
	// the receiver of the faulty flit wire, credit leaks and reconciled
	// credits to the sender, stall cycles to the stalled router.
	FaultDroppedFlits      int64 `json:"faultDroppedFlits,omitempty"`
	FaultCorruptedFlits    int64 `json:"faultCorruptedFlits,omitempty"`
	FaultRetransmits       int64 `json:"faultRetransmits,omitempty"`
	FaultLostFlits         int64 `json:"faultLostFlits,omitempty"`
	FaultCreditLeaks       int64 `json:"faultCreditLeaks,omitempty"`
	FaultReconciledCredits int64 `json:"faultReconciledCredits,omitempty"`
	FaultStallCycles       int64 `json:"faultStallCycles,omitempty"`
	// Stalled-head-flit cycles this router charged per blame bucket
	// (attribution only; see Probe.Charge). These count charges made *at*
	// this router, unlike the decomposition tables, which fold per source.
	AttrNativeCycles  int64 `json:"attrNativeCycles,omitempty"`
	AttrForeignCycles int64 `json:"attrForeignCycles,omitempty"`
	AttrEscapeCycles  int64 `json:"attrEscapeCycles,omitempty"`
	AttrFaultCycles   int64 `json:"attrFaultCycles,omitempty"`
}

// add accumulates o into c (report totals).
func (c *Counters) add(o *Counters) {
	c.VAGrantNative += o.VAGrantNative
	c.VAGrantForeign += o.VAGrantForeign
	c.VADenyNative += o.VADenyNative
	c.VADenyForeign += o.VADenyForeign
	c.SAInGrantNative += o.SAInGrantNative
	c.SAInGrantForeign += o.SAInGrantForeign
	c.SAInDenyNative += o.SAInDenyNative
	c.SAInDenyForeign += o.SAInDenyForeign
	c.SAOutGrantNative += o.SAOutGrantNative
	c.SAOutGrantForeign += o.SAOutGrantForeign
	c.SAOutDenyNative += o.SAOutDenyNative
	c.SAOutDenyForeign += o.SAOutDenyForeign
	c.DPAToNativeHigh += o.DPAToNativeHigh
	c.DPAToForeignHigh += o.DPAToForeignHigh
	c.CreditStalls += o.CreditStalls
	c.InjectStalls += o.InjectStalls
	c.LinkFlits += o.LinkFlits
	c.FaultDroppedFlits += o.FaultDroppedFlits
	c.FaultCorruptedFlits += o.FaultCorruptedFlits
	c.FaultRetransmits += o.FaultRetransmits
	c.FaultLostFlits += o.FaultLostFlits
	c.FaultCreditLeaks += o.FaultCreditLeaks
	c.FaultReconciledCredits += o.FaultReconciledCredits
	c.FaultStallCycles += o.FaultStallCycles
	c.AttrNativeCycles += o.AttrNativeCycles
	c.AttrForeignCycles += o.AttrForeignCycles
	c.AttrEscapeCycles += o.AttrEscapeCycles
	c.AttrFaultCycles += o.AttrFaultCycles
}

// Probe is one node's sink: the router and NI of the node hold it and feed
// it events. A nil Probe is the disabled state; all methods are nil-safe.
type Probe struct {
	node int
	app  int
	c    Counters

	col *Collector

	win       winRing
	lastFlits int64
	lastAttr  [msg.NumBlame]int64

	// decomp holds the per-(source app, class) latency decompositions of
	// packets ejected at this node (attribution only; see attribution.go).
	decomp map[DecompKey]*Decomp

	events  []Event
	dropped int64
}

// Counters returns a snapshot of the probe's counter block.
func (p *Probe) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	return p.c
}

// VAGrant counts a VA output arbitration grant.
func (p *Probe) VAGrant(native bool) {
	if p == nil {
		return
	}
	if native {
		p.c.VAGrantNative++
	} else {
		p.c.VAGrantForeign++
	}
}

// VADeny counts a requestor that lost a VA output arbitration this cycle.
func (p *Probe) VADeny(native bool) {
	if p == nil {
		return
	}
	if native {
		p.c.VADenyNative++
	} else {
		p.c.VADenyForeign++
	}
}

// SAInGrant counts an SA input arbitration grant.
func (p *Probe) SAInGrant(native bool) {
	if p == nil {
		return
	}
	if native {
		p.c.SAInGrantNative++
	} else {
		p.c.SAInGrantForeign++
	}
}

// SAInDeny counts a requestor that lost an SA input arbitration this cycle.
func (p *Probe) SAInDeny(native bool) {
	if p == nil {
		return
	}
	if native {
		p.c.SAInDenyNative++
	} else {
		p.c.SAInDenyForeign++
	}
}

// SAOutGrant counts an SA output arbitration grant.
func (p *Probe) SAOutGrant(native bool) {
	if p == nil {
		return
	}
	if native {
		p.c.SAOutGrantNative++
	} else {
		p.c.SAOutGrantForeign++
	}
}

// SAOutDeny counts a requestor that lost an SA output arbitration this
// cycle.
func (p *Probe) SAOutDeny(native bool) {
	if p == nil {
		return
	}
	if native {
		p.c.SAOutDenyNative++
	} else {
		p.c.SAOutDenyForeign++
	}
}

// DPATransition counts a DPA priority flip; toNativeHigh is the new state.
func (p *Probe) DPATransition(toNativeHigh bool) {
	if p == nil {
		return
	}
	if toNativeHigh {
		p.c.DPAToNativeHigh++
	} else {
		p.c.DPAToForeignHigh++
	}
}

// CreditStall counts an SA candidate blocked on an empty credit counter.
func (p *Probe) CreditStall() {
	if p == nil {
		return
	}
	p.c.CreditStalls++
}

// InjectStall counts a cycle in which an NI class queue held a packet but
// every eligible local-input VC was busy (buffer-full injection stall).
func (p *Probe) InjectStall() {
	if p == nil {
		return
	}
	p.c.InjectStalls++
}

// LinkFlit counts one flit pushed onto an output link.
func (p *Probe) LinkFlit() {
	if p == nil {
		return
	}
	p.c.LinkFlits++
}

// FaultDroppedFlit counts a flit silently lost on an input link.
func (p *Probe) FaultDroppedFlit() {
	if p == nil {
		return
	}
	p.c.FaultDroppedFlits++
}

// FaultCorruptedFlit counts a flit discarded by the CRC check on an input
// link.
func (p *Probe) FaultCorruptedFlit() {
	if p == nil {
		return
	}
	p.c.FaultCorruptedFlits++
}

// FaultRetransmit counts a flit re-entering an input link's wire.
func (p *Probe) FaultRetransmit() {
	if p == nil {
		return
	}
	p.c.FaultRetransmits++
}

// FaultLostFlit counts a flit permanently lost after exhausting its retry
// budget.
func (p *Probe) FaultLostFlit() {
	if p == nil {
		return
	}
	p.c.FaultLostFlits++
}

// FaultCreditLeak counts a credit lost on an output link's return wire.
func (p *Probe) FaultCreditLeak() {
	if p == nil {
		return
	}
	p.c.FaultCreditLeaks++
}

// FaultReconciledCredits counts n leaked credits restored by
// reconciliation.
func (p *Probe) FaultReconciledCredits(n int64) {
	if p == nil {
		return
	}
	p.c.FaultReconciledCredits += n
}

// FaultStallCycle counts one cycle of an injected router-pipeline stall.
func (p *Probe) FaultStallCycle() {
	if p == nil {
		return
	}
	p.c.FaultStallCycles++
}

// Collector owns the per-node probes of one network and the run-wide
// configuration. It is not safe for concurrent use by itself; the network
// confines all cross-probe operations to the coordinating goroutine.
type Collector struct {
	cfg    Config
	probes []*Probe
	now    int64
}

// NewCollector returns a collector with cfg's zero fields defaulted.
func NewCollector(cfg Config) *Collector {
	return &Collector{cfg: cfg.withDefaults()}
}

// ProbeFor returns (creating if needed) the probe for a node. The network
// calls it while wiring; the probe set must be complete before sampling.
func (c *Collector) ProbeFor(node, app int) *Probe {
	for len(c.probes) <= node {
		c.probes = append(c.probes, nil)
	}
	if c.probes[node] == nil {
		c.probes[node] = &Probe{node: node, app: app, col: c}
	}
	return c.probes[node]
}

// Advance notes the cycle and reports whether a sampling window just
// closed; the network then samples every router. Runs on the coordinator
// only.
func (c *Collector) Advance(now int64) bool {
	c.now = now
	return (now+1)%c.cfg.Window == 0
}
