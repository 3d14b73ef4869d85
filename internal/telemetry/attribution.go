package telemetry

import (
	"errors"
	"fmt"
	"sort"

	"rair/internal/msg"
)

// Interference attribution: every cycle a head flit sits stalled at a
// router (VA deny, SA deny, credit stall), the router charges
// the cycle to one of the msg.Blame* buckets on the packet and to the
// charging router's counters. When the packet ejects, the destination NI
// folds the packet's accumulated blame vector — together with its measured
// latency — into a per-(source app, class) decomposition owned by the
// destination node's probe.
//
// The accounting is observer-only (routers never read Blame) and charges at
// most one cycle per packet per cycle: only the un-sent head flit is
// charged, and a packet's head is pending at exactly one router at a time.
// Undercharging is possible (a stall whose cause the router cannot see) and
// lands in the ZeroLoad residual; overcharging would make the residual
// negative, which the conservation check rejects.

// Charge attributes one stalled cycle of pkt's head flit to a cause bucket.
// Callers guard on AttributionOn; the method is additionally nil-safe.
func (p *Probe) Charge(pkt *msg.Packet, cause int) {
	if p == nil {
		return
	}
	pkt.Blame[cause]++
	switch cause {
	case msg.BlameNative:
		p.c.AttrNativeCycles++
	case msg.BlameForeign:
		p.c.AttrForeignCycles++
	case msg.BlameEscape:
		p.c.AttrEscapeCycles++
	}
}

// AttributionOn reports whether blame accounting is enabled for this
// probe's collector. Routers cache the answer at wiring time so the off
// path stays a single branch.
func (p *Probe) AttributionOn() bool {
	return p != nil && p.col.cfg.Attribution
}

// DecompKey identifies one latency-decomposition row: the source
// application (RAIR assigns each application its own region, so App names
// the source region) and the message class.
type DecompKey struct {
	App   int       `json:"app"`
	Class msg.Class `json:"class"`
}

// Decomp is the accumulated latency decomposition of the ejected packets
// under one key. All fields are cycle sums over those packets;
// conservation: Total = InjectQueue + ZeroLoad + Native + Foreign + Escape,
// with ZeroLoad the non-negative unattributed residual (pipeline
// transit plus stalls whose cause the router could not classify).
type Decomp struct {
	Packets           int64 `json:"packets"`
	TotalCycles       int64 `json:"totalCycles"`
	InjectQueueCycles int64 `json:"injectQueueCycles"`
	ZeroLoadCycles    int64 `json:"zeroLoadCycles"`
	NativeCycles      int64 `json:"nativeCycles"`
	ForeignCycles     int64 `json:"foreignCycles"`
	EscapeCycles      int64 `json:"escapeCycles"`
}

func (d *Decomp) add(o *Decomp) {
	d.Packets += o.Packets
	d.TotalCycles += o.TotalCycles
	d.InjectQueueCycles += o.InjectQueueCycles
	d.ZeroLoadCycles += o.ZeroLoadCycles
	d.NativeCycles += o.NativeCycles
	d.ForeignCycles += o.ForeignCycles
	d.EscapeCycles += o.EscapeCycles
}

// attributed is the sum of the cause buckets (everything except inject
// queueing and the zero-load residual).
func (d *Decomp) attributed() int64 {
	return d.NativeCycles + d.ForeignCycles + d.EscapeCycles
}

// FoldAttribution folds an ejected packet's blame vector and measured
// latency into the destination probe's decomposition table. Called by the
// destination NI at tail ejection, i.e. by the shard that owns this probe
// during the link phase, so the table needs no locking.
func (p *Probe) FoldAttribution(pkt *msg.Packet) {
	if p == nil || !p.col.cfg.Attribution {
		return
	}
	if p.decomp == nil {
		p.decomp = make(map[DecompKey]*Decomp)
	}
	k := DecompKey{App: pkt.App, Class: pkt.Class}
	d := p.decomp[k]
	if d == nil {
		d = &Decomp{}
		p.decomp[k] = d
	}
	total := pkt.TotalLatency()
	inject := pkt.InjectedAt - pkt.CreatedAt
	if pkt.InjectedAt < 0 { // ejected without an inject stamp (synthetic)
		inject = 0
	}
	var blamed int64
	for _, b := range pkt.Blame {
		blamed += int64(b)
	}
	d.Packets++
	d.TotalCycles += total
	d.InjectQueueCycles += inject
	d.ZeroLoadCycles += total - inject - blamed
	d.NativeCycles += int64(pkt.Blame[msg.BlameNative])
	d.ForeignCycles += int64(pkt.Blame[msg.BlameForeign])
	d.EscapeCycles += int64(pkt.Blame[msg.BlameEscape])
}

// DecompRow is one (source app, class) row of the attribution report.
type DecompRow struct {
	DecompKey
	Decomp
	// InterferenceRatio is ForeignCycles over all attributed cycles for
	// the row (0 when nothing was attributed) — the scalar the paper's
	// interference figures argue about.
	InterferenceRatio float64 `json:"interferenceRatio"`
}

// AttributionReport is the run-wide latency decomposition: one row per
// (source app, class) with ejected packets, sorted by key, plus the total.
type AttributionReport struct {
	Rows  []DecompRow `json:"rows"`
	Total DecompRow   `json:"total"`
}

// Attribution merges every probe's decomposition table into a sorted
// report, or returns nil when attribution is off or nothing ejected.
// Coordinator-only, like Report.
func (c *Collector) Attribution() *AttributionReport {
	if !c.cfg.Attribution {
		return nil
	}
	merged := make(map[DecompKey]*Decomp)
	for _, p := range c.probes {
		if p == nil {
			continue
		}
		for k, d := range p.decomp {
			m := merged[k]
			if m == nil {
				m = &Decomp{}
				merged[k] = m
			}
			m.add(d)
		}
	}
	if len(merged) == 0 {
		return nil
	}
	keys := make([]DecompKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].App != keys[j].App {
			return keys[i].App < keys[j].App
		}
		return keys[i].Class < keys[j].Class
	})
	rep := &AttributionReport{Rows: make([]DecompRow, 0, len(keys))}
	for _, k := range keys {
		d := merged[k]
		rep.Rows = append(rep.Rows, DecompRow{DecompKey: k, Decomp: *d, InterferenceRatio: ratioOf(d)})
		rep.Total.Decomp.add(d)
	}
	rep.Total.App, rep.Total.Class = -1, -1
	rep.Total.InterferenceRatio = ratioOf(&rep.Total.Decomp)
	return rep
}

func ratioOf(d *Decomp) float64 {
	if a := d.attributed(); a > 0 {
		return float64(d.ForeignCycles) / float64(a)
	}
	return 0
}

// Conservation checks the report's accounting identities: every row's
// cycle buckets must sum exactly to its measured total latency, and no
// row may have a negative zero-load residual (which would mean a packet
// was double-charged for one cycle).
func (r *AttributionReport) Conservation() error {
	if r == nil {
		return nil
	}
	check := func(label string, d *Decomp) error {
		if sum := d.InjectQueueCycles + d.ZeroLoadCycles + d.attributed(); sum != d.TotalCycles {
			return fmt.Errorf("attribution row %s: buckets sum to %d, measured total %d", label, sum, d.TotalCycles)
		}
		if d.ZeroLoadCycles < 0 {
			return fmt.Errorf("attribution row %s: negative zero-load residual %d (double charge)", label, d.ZeroLoadCycles)
		}
		return nil
	}
	var err error
	for i := range r.Rows {
		row := &r.Rows[i]
		label := fmt.Sprintf("app=%d class=%v", row.App, row.Class)
		err = errors.Join(err, check(label, &row.Decomp))
	}
	return errors.Join(err, check("total", &r.Total.Decomp))
}

// Totals returns the sum of every probe's counter block: the totals of
// Summary and Report, and the one place they are summed.
func (c *Collector) Totals() Counters {
	var t Counters
	for _, p := range c.probes {
		if p == nil {
			continue
		}
		cnt := p.c
		t.add(&cnt)
	}
	return t
}
