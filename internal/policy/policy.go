// Package policy defines the interference-reduction policy interface the
// router consults at its arbitration steps, plus the region-oblivious
// baselines evaluated in the paper: RO_RR (round-robin) and RO_Rank (an
// idealized STC with oracle application ranking and time-based batching).
//
// A policy instance is per-router: it may keep per-router state (RAIR's DPA
// registers). All policies reduce to the same hardware shape — a small
// integer priority per requestor in front of a fair (round-robin) arbiter —
// evaluated at the VA output arbitration and the SA input/output
// arbitrations. VA input arbitration is contention-free between flows
// (Section IV.B), so no policy hook exists there.
package policy

import "rair/internal/msg"

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

// Requestor is the per-packet context a policy sees at an arbitration step.
// The router builds it from the packet header and its own region tag.
type Requestor struct {
	// App is the application number carried by the packet.
	App int
	// Native reports whether the packet's application matches the
	// router's assigned application (native vs. foreign traffic).
	Native bool
	// CreatedAt is the packet creation cycle (age-based tie-breaks).
	CreatedAt int64
}

// FromPacket builds a Requestor for a packet traversing a router assigned
// to routerApp (region.Unassigned = -1 when the router has no application).
func FromPacket(p *msg.Packet, routerApp int) Requestor {
	return Requestor{
		App:       p.App,
		Native:    routerApp >= 0 && p.App == routerApp,
		CreatedAt: p.CreatedAt,
	}
}

// Policy computes arbitration priorities for one router. Higher values win;
// equal values fall back to the arbiter's round-robin fairness. now is the
// current cycle, available for batch-age computation.
type Policy interface {
	// VAOutPriority is consulted at the VA output arbitration for an
	// output VC of class cls.
	VAOutPriority(r Requestor, cls VCClass, now int64) int
	// SAPriority is consulted at the SA input and SA output arbitrations
	// (the paper uses one consistent priority across both).
	SAPriority(r Requestor, now int64) int
	// Update is called once per cycle with the router's occupied-VC
	// counts for native and foreign traffic; DPA-style policies adapt
	// their state from it. The updated state takes effect next cycle,
	// matching the paper's removal of DPA from the critical path.
	Update(ovcNative, ovcForeign int)
}

// Factory builds one Policy instance per router. node is the router's node
// id and app its assigned application (or -1).
type Factory func(node, app int) Policy

// Tabular is an optional Policy facet for policies whose priorities depend
// only on the requestor's native bit and the VC class — never on packet age
// or batch. Such policies expose their current priorities as small lookup
// tables: sa indexed by native (0/1), va by [VCClass][native]. The pointers
// stay valid for the policy's lifetime; the policy rewrites the table
// contents whenever its state changes (inside Update, whose effect the
// router already defers to the next cycle), so the router's arbitration hot
// path reads two array cells instead of making two interface calls per
// requestor. Age- and batch-based policies (Rank, Age, DynRank) cannot
// implement this facet and keep the interface path.
type Tabular interface {
	PriorityTables() (sa *[2]int8, va *[3][2]int8)
}

// flatTables backs every stateless all-zero Tabular policy (read-only).
var flatSA [2]int8
var flatVA [3][2]int8

// PriorityTables implements Tabular: all priorities flat.
func (RoundRobin) PriorityTables() (*[2]int8, *[3][2]int8) { return &flatSA, &flatVA }

// BatchInterval is the default STC batching interval in cycles: packets
// created in the same interval share a batch, and older batches always
// outrank younger ones (starvation avoidance). The interval balances two
// failure modes under adversarial load — too fine and starved low-rank
// traffic ages into priority quickly (the batching weakness the paper
// points out in Section III.A); too coarse and starved packets hog VC
// buffers, collapsing throughput for everyone.
const BatchInterval = 250

// RoundRobin is RO_RR: the application- and region-oblivious baseline. All
// priorities are flat, so every arbitration is pure round-robin.
type RoundRobin struct{}

// NewRoundRobin returns the RO_RR policy (stateless; one value serves any
// router).
func NewRoundRobin(node, app int) Policy { return RoundRobin{} }

// VAOutPriority implements Policy; always 0.
func (RoundRobin) VAOutPriority(Requestor, VCClass, int64) int { return 0 }

// SAPriority implements Policy; always 0.
func (RoundRobin) SAPriority(Requestor, int64) int { return 0 }

// Update implements Policy; RO_RR keeps no state.
func (RoundRobin) Update(int, int) {}

// maxBatchAge caps the batch-age component so the composed priority stays
// well away from overflow while preserving "older batch always wins".
const maxBatchAge = 1 << 20

// Rank is RO_Rank: the paper's optimized STC. Applications are ranked by
// network intensity (rank 0 = least intensive = highest priority), the
// ranking being an oracle input from the harness, exactly as the paper
// assumes ("able to always find the optimal application rankings").
// Packets in older batches outrank younger batches regardless of rank,
// providing starvation avoidance. Region-oblivious: the VC class and the
// regional/global nature of traffic are ignored.
type Rank struct {
	ranks    []int // app -> rank, 0 best
	numApps  int
	interval int64 // batching interval in cycles
}

// NewRankFactory returns a Factory for RO_Rank with the given oracle
// ranking (ranks[app] = rank, 0 = highest priority) and the default
// BatchInterval. Apps beyond the table (e.g. adversarial traffic with an
// unranked app id) get the worst rank.
func NewRankFactory(ranks []int) Factory {
	return NewRankFactoryInterval(ranks, BatchInterval)
}

// NewRankFactoryInterval is NewRankFactory with an explicit batching
// interval (the batching ablation).
func NewRankFactoryInterval(ranks []int, interval int64) Factory {
	if interval < 1 {
		panic("policy: batch interval must be >= 1")
	}
	r := append([]int(nil), ranks...)
	return func(node, app int) Policy {
		return &Rank{ranks: r, numApps: len(r), interval: interval}
	}
}

func (p *Rank) priority(r Requestor, now int64) int {
	age := now/p.interval - r.CreatedAt/p.interval
	if age < 0 {
		age = 0
	}
	if age > maxBatchAge-1 {
		age = maxBatchAge - 1
	}
	rank := p.numApps // worst (unranked apps, e.g. adversarial traffic)
	if r.App >= 0 && r.App < len(p.ranks) {
		rank = p.ranks[r.App]
	}
	// Older batch dominates; within a batch, better (lower) rank wins.
	return int(age)*(p.numApps+2) + (p.numApps - rank)
}

// VAOutPriority implements Policy (region- and VC-class-oblivious).
func (p *Rank) VAOutPriority(r Requestor, _ VCClass, now int64) int {
	return p.priority(r, now)
}

// SAPriority implements Policy.
func (p *Rank) SAPriority(r Requestor, now int64) int { return p.priority(r, now) }

// Update implements Policy; ranking is static within an interval.
func (*Rank) Update(int, int) {}
