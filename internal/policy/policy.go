// Package policy is the arbitration policy a router consults at its
// arbitration steps. Every scheme the paper evaluates — the RO_RR baseline,
// the STC baseline RO_Rank and RAIR with its ablations — has one hardware
// shape: a small integer priority per requestor in front of a fair
// (round-robin) arbiter, read at the VA output arbitration and at the SA
// input and output arbitrations. VA input arbitration is contention-free
// between flows (Section IV.B), so no priority is read there.
//
// A Spec holds the switches the schemes vary; New builds one router's
// Policy from it. RAIR is three mechanisms over the native/foreign bit of a
// packet (its application against the router's):
//
//   - VC regionalization: output VCs are tagged global or regional; foreign
//     traffic always outranks native traffic on global VCs, while the
//     priority on regional VCs follows the DPA state (Section IV.A).
//   - Multi-stage prioritization (MSP): the same native/foreign priority is
//     enforced at VA output arbitration and, unless VA-only, at both SA
//     arbitration steps (Section IV.B).
//   - Dynamic priority adaptation (DPA): per-router occupied-VC registers
//     for native (OVC_n) and foreign (OVC_f) traffic drive a hysteresis
//     state machine on the ratio r = OVC_f/OVC_n with band (1-Δ, 1+Δ);
//     native traffic is high priority only while foreign intensity exceeds
//     native intensity (Section IV.C, Figure 7). Priority computed in one
//     cycle is used in the next, keeping DPA off the critical path.
//
// Starvation freedom comes from DPA's negative feedback: a flow that
// accumulates VC occupancy loses priority (Section IV.D); see the network
// integration tests for the empirical check.
package policy

import (
	"math"

	"rair/internal/msg"
)

// VCClass tags a virtual channel under RAIR's VC regionalization. Escape
// VCs exist for Duato-style deadlock freedom and take no part in the
// regional/global prioritization.
type VCClass int

const (
	// VCEscape is a deadlock-avoidance escape VC (DOR-routed).
	VCEscape VCClass = iota
	// VCGlobal is tagged for inter-region traffic priority rules.
	VCGlobal
	// VCRegional is tagged for intra-region traffic priority rules.
	VCRegional
)

func (c VCClass) String() string {
	switch c {
	case VCEscape:
		return "Escape"
	case VCGlobal:
		return "Global"
	case VCRegional:
		return "Regional"
	}
	return "VCClass(?)"
}

// Priority is the rule that orders the requestors of an arbitration.
type Priority uint8

const (
	// RR is RO_RR, the region-oblivious baseline: every priority is flat,
	// so every arbitration is pure round-robin.
	RR Priority = iota
	// Rank is STC (Das et al.): packets in older batches outrank younger
	// batches regardless of rank (starvation avoidance); within a batch
	// the application with the better (lower) rank in Spec.Ranks wins.
	// Region- and VC-class-oblivious.
	Rank
	// NativeH statically favors native traffic on regional VCs and in SA
	// (the RAIR_NativeH ablation of Figure 12). It and the rules after it
	// are RAIR's native/foreign rules.
	NativeH
	// ForeignH statically favors foreign traffic (RAIR_ForeignH).
	ForeignH
	// DPA adapts the native/foreign priority per router: the full RAIR.
	DPA
)

// Stages is where MSP enforces the native/foreign priority.
type Stages uint8

const (
	// VAandSA enforces it at VA_out and at both SA steps, with one
	// consistent priority across the stages (Section IV.B).
	VAandSA Stages = iota
	// VAOnly leaves SA round-robin (the RAIR_VA ablation of Figure 9).
	VAOnly
)

// Spec is a scheme's arbitration policy: the switches the evaluated
// schemes vary.
type Spec struct {
	Priority Priority
	// MSP selects the stages the native/foreign priority of NativeH,
	// ForeignH and DPA reaches.
	MSP Stages
	// Delta is DPA's hysteresis width Δ; zero is no hysteresis.
	Delta float64
	// Ranks is Rank's application ranking, the oracle the paper grants its
	// optimized STC ("able to always find the optimal application
	// rankings"): Ranks[app] is app's rank, rank 0 the least
	// network-intensive application and the highest priority. Batch is
	// Rank's batching interval in cycles.
	Ranks []int
	Batch int64
}

// DefaultDelta is the hysteresis width the paper settles on: 0.1-0.3 work
// well, the best value is around 0.2.
const DefaultDelta = 0.2

// BatchInterval is the default STC batching interval in cycles: packets
// created in the same interval share a batch, and older batches always
// outrank younger ones (starvation avoidance). The interval balances two
// failure modes under adversarial load — too fine and starved low-rank
// traffic ages into priority quickly (the batching weakness the paper
// points out in Section III.A); too coarse and starved packets hog VC
// buffers, collapsing throughput for everyone.
const BatchInterval = 250

// maxBatchAge caps Rank's batch age so the composed priority stays well
// away from overflow while preserving "older batch always wins".
const maxBatchAge = 1<<20 - 1

// Policy is one router's arbitration policy. Higher priorities win; equal
// ones fall back to the arbiter's round-robin fairness. A priority is the
// native/foreign base of the current state, sa[native] or
// va[class][native], plus the packet's order term. The base is zero under
// RR and Rank, and the order term is zero except under Rank, so each read
// takes one of the two.
type Policy struct {
	sa [2]int8
	va [3][2]int8

	// ordered is set under Rank, which adds the order term.
	ordered bool
	// nativeHigh is the native/foreign state: whether native traffic has
	// the high priority. DPA starts foreign-high (global traffic is
	// typically more critical).
	nativeHigh bool
	app        int // the router's application; math.MinInt when it has none
	spec       Spec
}

// New returns the policy of a router assigned to application app (negative
// when it has none).
func New(spec Spec, app int) Policy {
	if app < 0 {
		app = math.MinInt // matches no packet's application
	}
	p := Policy{
		ordered:    spec.Priority == Rank,
		nativeHigh: spec.Priority == NativeH,
		app:        app,
		spec:       spec,
	}
	p.setBase()
	return p
}

// setBase derives the base tables from the Spec's rules and the current
// state. Under NativeH, ForeignH and DPA, foreign traffic always wins on
// global VCs, and the favored traffic wins on regional VCs and, unless
// VA-only, in SA; escape VCs stay fair (a deadlock-safety resource outside
// the regional/global classification). The other rules are flat here.
func (p *Policy) setBase() {
	if p.spec.Priority < NativeH { // RR, Rank
		return
	}
	hi := b2i(p.nativeHigh)
	p.va = [3][2]int8{}
	p.va[VCGlobal][0] = 1
	p.va[VCRegional][hi] = 1
	p.sa = [2]int8{}
	if p.spec.MSP == VAandSA {
		p.sa[hi] = 1
	}
}

// SAPriority is pkt's priority at SA_in and SA_out at cycle now.
func (p *Policy) SAPriority(pkt *msg.Packet, now int64) int {
	if p.ordered {
		return p.order(pkt, now)
	}
	return int(p.sa[p.native(pkt)])
}

// VAPriority is pkt's priority at the VA output arbitration of an output
// VC of class cls at cycle now.
func (p *Policy) VAPriority(pkt *msg.Packet, cls VCClass, now int64) int {
	if p.ordered {
		return p.order(pkt, now)
	}
	return int(p.va[cls][p.native(pkt)])
}

// Ordered reports whether priorities carry a per-packet order term
// (Rank): only then does an arbitration need a priority row. Under the
// other rules every priority is a native/foreign base, and SAFavored and
// VAFavored narrow a request set to its top class instead.
func (p *Policy) Ordered() bool { return p.ordered }

// SAFavored narrows an SA request set, over requestors whose native traffic
// native marks, to those of the highest SA priority; it returns req itself
// when no requestor outranks another by class (always under Rank).
// Under the other rules a flat grant over the result is the prioritized
// grant over req.
func (p *Policy) SAFavored(req, native uint64) uint64 {
	if f := req & favor(p.sa, native); f != 0 {
		return f
	}
	return req
}

// VAFavored is SAFavored at the VA output arbitration of an output VC of
// class cls, over request rows of any width; a narrowed row goes to dst.
func (p *Policy) VAFavored(cls VCClass, req, native, dst []uint64) []uint64 {
	base := p.va[cls]
	if base[0] == base[1] {
		return req
	}
	var any uint64
	for i, m := range req {
		dst[i] = m & favor(base, native[i])
		any |= dst[i]
	}
	if any == 0 {
		return req
	}
	return dst
}

// favor is the mask of the requestors base ranks highest, given the mask
// of the native ones: all when the two classes tie, else native, flipped
// when foreign traffic ranks higher.
func favor(base [2]int8, native uint64) uint64 {
	if base[0] == base[1] {
		return ^uint64(0)
	}
	return native ^ -uint64(b2i(base[0] > base[1]))
}

// native is pkt's native bit: its application is the router's.
func (p *Policy) native(pkt *msg.Packet) int { return b2i(pkt.App == p.app) }

// order is Rank's batch age times a weight that puts every older batch
// above every rank, plus the rank term. An application outside the
// ranking (adversarial traffic with an unranked id, say) gets the worst
// rank, the number of ranked applications, which adds nothing.
func (p *Policy) order(pkt *msg.Packet, now int64) int {
	b := p.spec.Batch
	age := min(max(now/b-pkt.CreatedAt/b, 0), maxBatchAge)
	n, rank := len(p.spec.Ranks), len(p.spec.Ranks)
	if pkt.App >= 0 && pkt.App < n {
		rank = p.spec.Ranks[pkt.App]
	}
	return int(age)*(n+2) + n - rank
}

// Update is DPA's hysteresis transition of Figure 7, fed the router's
// occupied-VC counts; it reports whether the state flipped, and the new
// state applies from the next read on. A second call with the same counts
// never flips (for Δ ≥ 0 the two bands cannot both hold), so the router
// calls it only when a count moved. The ratio
// r = OVC_f / OVC_n is compared against (1±Δ): the native priority rises
// only once foreign occupancy exceeds native occupancy by the hysteresis
// margin, and falls symmetrically. A zero OVC_n with nonzero OVC_f is an
// infinite ratio (native high); when both registers are zero the state
// holds (nothing to adapt to). The other rules keep their state.
func (p *Policy) Update(ovcNative, ovcForeign int) bool {
	if p.spec.Priority != DPA {
		return false
	}
	n, f := float64(ovcNative), float64(ovcForeign)
	if p.nativeHigh && f < (1-p.spec.Delta)*n ||
		!p.nativeHigh && f > (1+p.spec.Delta)*n && ovcForeign > 0 {
		p.nativeHigh = !p.nativeHigh
		p.setBase()
		return true
	}
	return false
}

// NativeHigh reports whether native traffic holds the high priority.
func (p *Policy) NativeHigh() bool { return p.nativeHigh }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
