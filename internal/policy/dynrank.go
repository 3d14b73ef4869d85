package policy

import "sort"

// RankState is the shared state of the measured (non-oracle) STC variant:
// per-application injection counts accumulated over a ranking interval,
// converted into ranks (least intensive first) at each interval boundary —
// the central "application ranking" logic STC performs in hardware/OS,
// which the paper idealizes away by granting RO_Rank perfect rankings.
//
// One RankState is shared by every router's policy instance; the traffic
// source reports injections via Observe, and Advance recomputes ranks. It
// is not safe for concurrent use (one simulation = one goroutine).
type RankState struct {
	interval int64
	maxApps  int

	counts   []uint64
	ranks    []int
	lastRoll int64
}

// NewRankState builds shared ranking state for up to maxApps application
// ids, re-ranking every interval cycles.
func NewRankState(maxApps int, interval int64) *RankState {
	if maxApps < 1 || interval < 1 {
		panic("policy: invalid rank state parameters")
	}
	s := &RankState{
		interval: interval,
		maxApps:  maxApps,
		counts:   make([]uint64, maxApps),
		ranks:    make([]int, maxApps),
	}
	for i := range s.ranks {
		s.ranks[i] = i
	}
	return s
}

// Observe records one injected packet for app (ignored if out of range).
func (s *RankState) Observe(app int) {
	if app >= 0 && app < s.maxApps {
		s.counts[app]++
	}
}

// Advance rolls the ranking interval if due. Call once per cycle.
func (s *RankState) Advance(now int64) {
	if now-s.lastRoll < s.interval {
		return
	}
	s.lastRoll = now
	type ac struct {
		app   int
		count uint64
	}
	byLoad := make([]ac, s.maxApps)
	for a := range byLoad {
		byLoad[a] = ac{app: a, count: s.counts[a]}
		s.counts[a] = 0
	}
	sort.SliceStable(byLoad, func(i, j int) bool { return byLoad[i].count < byLoad[j].count })
	for r, e := range byLoad {
		s.ranks[e.app] = r
	}
}

// Rank returns the current rank of app (0 = least intensive); apps outside
// the tracked range get the worst rank.
func (s *RankState) Rank(app int) int {
	if app < 0 || app >= s.maxApps {
		return s.maxApps
	}
	return s.ranks[app]
}

// DynRank is the measured STC: identical arbitration to Rank, but the
// ranking comes from observed injection counts instead of an oracle.
type DynRank struct {
	state    *RankState
	interval int64
}

// NewDynRankFactory returns a Factory whose policies share the given
// measured ranking state; batch starvation-avoidance uses BatchInterval.
func NewDynRankFactory(state *RankState) Factory {
	return func(node, app int) Policy {
		return &DynRank{state: state, interval: BatchInterval}
	}
}

func (p *DynRank) priority(r Requestor, now int64) int {
	age := now/p.interval - r.CreatedAt/p.interval
	if age < 0 {
		age = 0
	}
	if age > maxBatchAge-1 {
		age = maxBatchAge - 1
	}
	n := p.state.maxApps
	rank := p.state.Rank(r.App)
	return int(age)*(n+2) + (n - rank)
}

// VAOutPriority implements Policy (region-oblivious).
func (p *DynRank) VAOutPriority(r Requestor, _ VCClass, now int64) int {
	return p.priority(r, now)
}

// SAPriority implements Policy.
func (p *DynRank) SAPriority(r Requestor, now int64) int { return p.priority(r, now) }

// Update implements Policy; ranking state advances externally.
func (*DynRank) Update(int, int) {}
