// Package faults is a deterministic, seeded fault injector for the NoC:
// link-level flit loss and corruption recovered by a CRC-style check with
// go-back-N retransmission (bounded retries, sender-timeout for silent
// drops, NACK latency for detected corruptions), virtual-channel credit
// leaks repaired by periodic credit reconciliation, and transient
// whole-router pipeline stalls.
//
// Every fault decision is a pure hash of (seed, site, event identity) —
// never of wall clock, map order or goroutine schedule — so a faulty run is
// bit-reproducible at any tick-engine worker count. Decisions attach at
// three sites:
//
//   - the flit wire of a link (verdict per arriving flit attempt), owned by
//     the receiver's shard;
//   - the credit wire of a link (leak verdict per arriving credit), owned
//     by the sender's shard;
//   - a router's compute phase (stall windows), owned by the router's
//     shard.
//
// Counter fields follow the same ownership split, so the injector needs no
// locks; cross-link aggregation (Report, Reconcile) runs on the
// coordinating goroutine between tick barriers.
package faults

import (
	"fmt"
	"sort"

	"rair/internal/msg"
	"rair/internal/telemetry"
)

// Defaults for the recovery-protocol timing knobs.
const (
	DefaultMaxRetries  = 32
	DefaultDropTimeout = 32
	DefaultNackLatency = 2
	DefaultStallLen    = 16
)

// Config describes the fault model of one run; probabilities apply
// uniformly to every link and router. It is also the public rair.FaultSpec
// and the "faults" block of a simulation file.
type Config struct {
	// Seed drives every fault decision (independent of the traffic seed);
	// rair.Simulation.Run replaces 0 by its own Config.Seed.
	Seed uint64 `json:"seed"`
	// DropProb / CorruptProb are the per-traversal probabilities that a
	// flit is silently lost in flight (the sender detects it by timeout,
	// DropTimeout cycles, and retransmits) or arrives corrupted (the
	// receiver's CRC-style check discards it and NACKs; the sender
	// retransmits after NackLatency cycles).
	DropProb    float64 `json:"dropProb"`
	CorruptProb float64 `json:"corruptProb"`
	// CreditLeakProb is the per-arrival probability a returning credit is
	// lost upstream; only credit reconciliation (ReconcileEvery) restores it.
	CreditLeakProb float64 `json:"creditLeakProb"`
	// StallProb is the per-cycle probability that an unstalled router's
	// pipeline freezes (flits still arrive and buffer) for StallLen cycles
	// (DefaultStallLen when 0).
	StallProb float64 `json:"stallProb"`
	StallLen  int     `json:"stallLen"`
	// MaxRetries bounds per-flit retransmission attempts; a flit failing
	// more often is permanently lost: the link forwards it marked Damaged
	// and its packet is discarded at the destination. DropTimeout is the
	// sender's loss-detection timeout and NackLatency the corruption NACK
	// round-trip, in cycles. Zero takes the Default* constants.
	MaxRetries  int `json:"maxRetries"`
	DropTimeout int `json:"dropTimeout"`
	NackLatency int `json:"nackLatency"`
	// ReconcileEvery is the credit-reconciliation period in cycles: every
	// period, leaked credits on every link are audited and restored to
	// their owner. 0 disables reconciliation (leaked credits are then
	// permanent, and throughput degrades until the network wedges).
	ReconcileEvery int64 `json:"reconcileEvery"`
}

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.DropTimeout == 0 {
		c.DropTimeout = DefaultDropTimeout
	}
	if c.NackLatency == 0 {
		c.NackLatency = DefaultNackLatency
	}
	if c.StallProb > 0 && c.StallLen == 0 {
		c.StallLen = DefaultStallLen
	}
	return c
}

// Validate rejects out-of-range probabilities and negative timing knobs.
func (c Config) Validate() error {
	for _, v := range [...]struct {
		name string
		p    float64
	}{{"drop", c.DropProb}, {"corrupt", c.CorruptProb}, {"leak", c.CreditLeakProb}, {"stall", c.StallProb}} {
		if v.p < 0 || v.p > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", v.name, v.p)
		}
	}
	if c.MaxRetries < 0 || c.DropTimeout < 0 || c.NackLatency < 0 || c.ReconcileEvery < 0 {
		return fmt.Errorf("faults: negative timing parameter")
	}
	return nil
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropProb != 0 || c.CorruptProb != 0 || c.CreditLeakProb != 0 || c.StallProb != 0 || c.StallLen != 0
}

// splitmix64 is the stateless mixer behind every fault decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Counters are one link's monotonic fault-event counts. The flit-side
// fields (CorruptedFlits..LostFlits) are written only by the receiver's
// shard, CreditLeaks only by the sender's shard, and ReconciledCredits only
// by the coordinator at a tick barrier, so the struct needs no lock.
type Counters struct {
	// CorruptedFlits counts arrivals discarded by the CRC check;
	// DroppedFlits counts flits silently lost in flight (recovered by
	// sender timeout); Retransmits counts flits re-entering the wire,
	// including the in-order go-back-N resends behind a failed flit.
	CorruptedFlits int64 `json:"corruptedFlits"`
	DroppedFlits   int64 `json:"droppedFlits"`
	Retransmits    int64 `json:"retransmits"`
	// LostFlits counts flits that exhausted MaxRetries and were forwarded
	// damaged; LostPackets counts the packets they belonged to, once each,
	// on the ejection link that discarded the packet.
	LostFlits   int64 `json:"lostFlits"`
	LostPackets int64 `json:"lostPackets"`
	// CreditLeaks counts credits lost upstream; ReconciledCredits counts
	// leaked credits restored by reconciliation.
	CreditLeaks       int64 `json:"creditLeaks"`
	ReconciledCredits int64 `json:"reconciledCredits"`
}

func (c *Counters) add(o *Counters) {
	c.CorruptedFlits += o.CorruptedFlits
	c.DroppedFlits += o.DroppedFlits
	c.Retransmits += o.Retransmits
	c.LostFlits += o.LostFlits
	c.LostPackets += o.LostPackets
	c.CreditLeaks += o.CreditLeaks
	c.ReconciledCredits += o.ReconciledCredits
}

// flitKey identifies one flit for per-attempt bookkeeping.
type flitKey struct {
	pkt uint64
	seq int
}

// retxEntry is one flit awaiting (re)transmission on a link.
type retxEntry struct {
	f          msg.Flit
	eligibleAt int64
}

// LinkState is the fault state attached to one link. The flit-side methods
// (Arrive, Retransmit, Pending) are called only by the receiver's shard in
// the link phase; CreditArrive only by the sender's shard; Reconcile only
// by the coordinator at a barrier.
type LinkState struct {
	id    uint64
	key   string
	cfg   *Config
	eject bool // ejection link: carries no credits, discards damaged packets

	// retx is the in-order go-back-N resend queue; attempts tracks
	// per-flit failure counts while a flit is unresolved.
	retx     []retxEntry
	attempts map[flitKey]int
	// resent holds the identities of queued flits currently re-traversing
	// the wire, in push order. The wire is FIFO and Retransmit pushes at
	// most one flit per cycle, so resends arrive in exactly this order;
	// Arrive uses the head to tell a resend (deliverable while the queue is
	// non-empty) from a fresh flit that overtook the queue (held).
	resent []flitKey
	// When a resend itself fails again it re-enters the queue front, and
	// the rehold next resend arrivals (the ones already in flight behind
	// it) must be held again too: they are reinserted right after it, at
	// reinsert, ahead of the older held flits, restoring original wire
	// order. While rehold > 0 no verdict is rolled for resend arrivals, so
	// the count cannot nest.
	rehold   int
	reinsert int

	// leaked[vc] counts credits lost on the wire and not yet reconciled.
	leaked  []int
	leakedN int

	// restore re-delivers a reconciled credit to the wire's sender side.
	restore func(vc int)

	// flitProbe is the receiver node's telemetry probe, credProbe the
	// sender node's (either nil when telemetry is off).
	flitProbe *telemetry.Probe
	credProbe *telemetry.Probe

	c Counters
}

// Pending reports whether retransmissions are queued; the link phase must
// keep servicing the wire while any are.
func (ls *LinkState) Pending() bool { return len(ls.retx) > 0 }

// PendingForVC reports queued retransmissions bound for downstream VC vc
// (per-VC credit accounting: these flits hold a consumed credit).
func (ls *LinkState) PendingForVC(vc int) int {
	n := 0
	for _, e := range ls.retx {
		if e.f.VC == vc {
			n++
		}
	}
	return n
}

// LeakedFor reports unreconciled leaked credits for vc.
func (ls *LinkState) LeakedFor(vc int) int {
	if vc < len(ls.leaked) {
		return ls.leaked[vc]
	}
	return 0
}

// verdict rolls the deterministic per-attempt fate of a flit.
func (ls *LinkState) verdict(f msg.Flit, attempt int) (drop, corrupt bool) {
	if ls.cfg.DropProb == 0 && ls.cfg.CorruptProb == 0 {
		return false, false
	}
	h := splitmix64(ls.cfg.Seed ^ ls.id*0x9e3779b97f4a7c15 ^
		splitmix64(f.Pkt.ID^uint64(f.Seq)<<48^uint64(attempt)<<56))
	u := unit(h)
	if u < ls.cfg.DropProb {
		return true, false
	}
	if u < ls.cfg.DropProb+ls.cfg.CorruptProb {
		return false, true
	}
	return false, false
}

// Arrive filters a flit completing its wire traversal at cycle now. It
// returns the flit and true when it is delivered; otherwise the flit was
// dropped, corrupted, or held for in-order delivery behind an earlier
// failure, and has been queued for retransmission. A flit whose retry budget
// is spent is delivered marked Damaged: every flit of a packet still reaches the
// destination in order, so no VC, buffer slot or credit is left held by a
// packet that can no longer complete, and the ejection link discards it.
func (ls *LinkState) Arrive(f msg.Flit, now int64) (msg.Flit, bool) {
	k := flitKey{f.Pkt.ID, f.Seq}
	isResend := len(ls.resent) > 0 && ls.resent[0] == k
	if isResend {
		ls.resent = ls.resent[:copy(ls.resent, ls.resent[1:])]
		if ls.rehold > 0 {
			// An earlier resend failed again while this one was in flight
			// behind it: hold it (no verdict, no retry charge) and slot it
			// back in right after the failed one.
			ls.rehold--
			ls.retx = append(ls.retx, retxEntry{})
			copy(ls.retx[ls.reinsert+1:], ls.retx[ls.reinsert:])
			ls.retx[ls.reinsert] = retxEntry{f: f, eligibleAt: now}
			ls.reinsert++
			return msg.Flit{}, false
		}
	}
	attempt := ls.attempts[k]
	if drop, corrupt := ls.verdict(f, attempt); drop || corrupt {
		var wait int64
		if drop {
			ls.c.DroppedFlits++
			ls.flitProbe.FaultDroppedFlit()
			wait = int64(ls.cfg.DropTimeout)
		} else {
			ls.c.CorruptedFlits++
			ls.flitProbe.FaultCorruptedFlit()
			wait = int64(ls.cfg.NackLatency)
		}
		if attempt+1 <= ls.cfg.MaxRetries {
			if ls.attempts == nil {
				ls.attempts = make(map[flitKey]int)
			}
			ls.attempts[k] = attempt + 1
			e := retxEntry{f: f, eligibleAt: now + wait}
			if isResend {
				// A failed resend retries before the flits held behind it,
				// keeping the queue in original wire order; the resends
				// already in flight behind it re-hold as they arrive.
				ls.retx = append(ls.retx, retxEntry{})
				copy(ls.retx[1:], ls.retx)
				ls.retx[0] = e
				ls.rehold = len(ls.resent)
				ls.reinsert = 1
			} else {
				ls.retx = append(ls.retx, e)
			}
			return msg.Flit{}, false
		}
		// Retry budget exhausted: give up on the payload, not on the flit.
		// A flit damaged upstream already is counted there.
		if f.Type&msg.Damaged == 0 {
			f.Type |= msg.Damaged
			ls.c.LostFlits++
			ls.flitProbe.FaultLostFlit()
		}
	}
	if !isResend && (len(ls.retx) > 0 || len(ls.resent) > 0) {
		// A failed flit is queued ahead of us, or a resend of one is in
		// flight behind us on the wire (this flit overtook it): go-back-N
		// holds this one so delivery stays in original order. No retry is
		// charged; it resends as-is.
		ls.retx = append(ls.retx, retxEntry{f: f, eligibleAt: now})
		return msg.Flit{}, false
	}
	delete(ls.attempts, k)
	if ls.eject {
		// Where the packet leaves the network: one damaged flit loses it,
		// and its tail is where it is counted.
		if f.Type&msg.Damaged != 0 {
			f.Pkt.Lost = true
		}
		if f.Pkt.Lost && f.Type.IsTail() {
			ls.c.LostPackets++
		}
	}
	return f, true
}

// Retransmit returns the next eligible queued flit, if any. The caller
// pushes it back onto the wire. While a rehold window is open (resends of a
// re-failed flit still in flight) the queue is frozen: popping would race
// the pending reinsertions and reorder the wire.
func (ls *LinkState) Retransmit(now int64) (msg.Flit, bool) {
	if ls.rehold > 0 || len(ls.retx) == 0 || ls.retx[0].eligibleAt > now {
		return msg.Flit{}, false
	}
	f := ls.retx[0].f
	copy(ls.retx, ls.retx[1:])
	ls.retx = ls.retx[:len(ls.retx)-1]
	ls.resent = append(ls.resent, flitKey{f.Pkt.ID, f.Seq})
	ls.c.Retransmits++
	ls.flitProbe.FaultRetransmit()
	return f, true
}

// CreditArrive filters a credit completing its upstream traversal; false
// means the credit leaked.
func (ls *LinkState) CreditArrive(vc int, now int64) bool {
	if ls.eject || ls.cfg.CreditLeakProb == 0 {
		return true
	}
	h := splitmix64(ls.cfg.Seed ^ (ls.id + 0x1000) ^ uint64(now)*0xd1342543de82ef95 ^ uint64(vc)<<40)
	if unit(h) >= ls.cfg.CreditLeakProb {
		return true
	}
	for len(ls.leaked) <= vc {
		ls.leaked = append(ls.leaked, 0)
	}
	ls.leaked[vc]++
	ls.leakedN++
	ls.c.CreditLeaks++
	ls.credProbe.FaultCreditLeak()
	return false
}

// Reconcile restores every leaked credit to the sender side and returns the
// restored count. Coordinator-only, at a tick barrier.
func (ls *LinkState) Reconcile() int {
	if ls.leakedN == 0 {
		return 0
	}
	n := 0
	for vc, k := range ls.leaked {
		for ; k > 0; k-- {
			ls.restore(vc)
			n++
		}
		ls.leaked[vc] = 0
	}
	ls.leakedN = 0
	ls.c.ReconciledCredits += int64(n)
	ls.credProbe.FaultReconciledCredits(int64(n))
	return n
}

// Injector owns a run's fault state: one LinkState per registered link and
// the per-router stall windows.
type Injector struct {
	cfg   Config
	links []*LinkState

	stallUntil  []int64
	stallCycles []int64
	stallProbes []*telemetry.Probe
}

// NewInjector validates cfg, applies defaults and sizes the per-router
// stall state for nodes routers.
func NewInjector(cfg Config, nodes int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg:         cfg.withDefaults(),
		stallUntil:  make([]int64, nodes),
		stallCycles: make([]int64, nodes),
		stallProbes: make([]*telemetry.Probe, nodes),
	}, nil
}

// RegisterLink creates the fault state for the link reported as key. The
// registration index seeds the link's verdicts, so a network must register
// its links in a fixed order. restore re-delivers reconciled credits to the
// sender side; eject marks a node's ejection link, whose credit wire is never
// used and where a packet with a damaged flit is discarded and counted.
func (in *Injector) RegisterLink(key string, restore func(vc int), eject bool) *LinkState {
	ls := &LinkState{
		id:      uint64(len(in.links) + 1),
		key:     key,
		cfg:     &in.cfg,
		eject:   eject,
		restore: restore,
	}
	in.links = append(in.links, ls)
	return ls
}

// SetLinkProbes attaches telemetry probes to a link's fault state: flit for
// the receiver node, cred for the sender node (either may be nil).
func (in *Injector) SetLinkProbes(ls *LinkState, flit, cred *telemetry.Probe) {
	ls.flitProbe, ls.credProbe = flit, cred
}

// SetStallProbe attaches node's telemetry probe for stall-cycle counting.
func (in *Injector) SetStallProbe(node int, p *telemetry.Probe) { in.stallProbes[node] = p }

// RouterStalled reports whether node's pipeline is frozen at cycle now,
// starting a new deterministic stall window when one is due. Call exactly
// once per router per cycle, from the router's owning shard.
func (in *Injector) RouterStalled(node int, now int64) bool {
	if now < in.stallUntil[node] {
		in.stallCycles[node]++
		in.stallProbes[node].FaultStallCycle()
		return true
	}
	if in.cfg.StallProb == 0 {
		return false
	}
	h := splitmix64(in.cfg.Seed ^ 0xabcd ^ uint64(node)<<32 ^ uint64(now)*0x2545f4914f6cdd1d)
	if unit(h) >= in.cfg.StallProb {
		return false
	}
	in.stallUntil[node] = now + int64(in.cfg.StallLen)
	in.stallCycles[node]++
	in.stallProbes[node].FaultStallCycle()
	return true
}

// ReconcileDue reports whether the credit-reconciliation period elapses at
// cycle now.
func (in *Injector) ReconcileDue(now int64) bool {
	return in.cfg.ReconcileEvery > 0 && (now+1)%in.cfg.ReconcileEvery == 0
}

// ReconcileAll restores leaked credits on every link (coordinator-only, at
// a barrier); it returns the restored count.
func (in *Injector) ReconcileAll() int {
	n := 0
	for _, ls := range in.links {
		n += ls.Reconcile()
	}
	return n
}

// PendingRetransmits reports flits queued for retransmission across all
// links.
func (in *Injector) PendingRetransmits() int {
	n := 0
	for _, ls := range in.links {
		n += len(ls.retx)
	}
	return n
}

// Report is the aggregated fault outcome of a run.
type Report struct {
	Totals Counters `json:"totals"`
	// StallCycles is the total router-pipeline stall cycles; StalledRouters
	// the number of routers that stalled at least once.
	StallCycles    int64 `json:"stallCycles"`
	StalledRouters int   `json:"stalledRouters"`
	// Links holds the per-link counter blocks of links with at least one
	// event, keyed by wiring key and sorted for stable output.
	Links []LinkReport `json:"links,omitempty"`
}

// LinkReport is one link's slice of the report.
type LinkReport struct {
	Key      string   `json:"key"`
	Counters Counters `json:"counters"`
}

// Report aggregates all fault counters. Only safe at a tick barrier (or
// after the run).
func (in *Injector) Report() *Report {
	r := &Report{}
	for _, ls := range in.links {
		if ls.c == (Counters{}) {
			continue
		}
		r.Totals.add(&ls.c)
		r.Links = append(r.Links, LinkReport{Key: ls.key, Counters: ls.c})
	}
	sort.Slice(r.Links, func(i, j int) bool { return r.Links[i].Key < r.Links[j].Key })
	for _, sc := range in.stallCycles {
		r.StallCycles += sc
		if sc > 0 {
			r.StalledRouters++
		}
	}
	return r
}

func (r *Report) String() string {
	lost := fmt.Sprintf("%d lost", r.Totals.LostFlits)
	if r.Totals.LostFlits > 0 {
		lost += fmt.Sprintf(" (%d packets)", r.Totals.LostPackets)
	}
	return fmt.Sprintf("faults: %d dropped, %d corrupted, %d retransmits, %s; %d credit leaks, %d reconciled; %d stall cycles on %d routers",
		r.Totals.DroppedFlits, r.Totals.CorruptedFlits, r.Totals.Retransmits, lost,
		r.Totals.CreditLeaks, r.Totals.ReconciledCredits, r.StallCycles, r.StalledRouters)
}
