package policy

import "sort"

// RankState is Rank's application ranking, shared by every router's
// policy: rank 0 is the least network-intensive application, the highest
// priority. A fixed ranking is the oracle the paper grants its optimized
// STC ("able to always find the optimal application rankings"). A measured
// one accumulates per-application injection counts over a ranking
// interval and converts them into ranks at each interval boundary — the
// central "application ranking" logic STC performs in hardware/OS. It is
// not safe for concurrent use (one simulation = one goroutine).
type RankState struct {
	interval int64
	counts   []uint64
	ranks    []int
	lastRoll int64
}

// FixedRanks is an oracle ranking that never advances: ranks[app] is the
// rank of app.
func FixedRanks(ranks []int) *RankState {
	return &RankState{ranks: append([]int(nil), ranks...)}
}

// NewRankState builds a measured ranking for application ids below
// maxApps, re-ranking every interval cycles from the injections Observe
// reports; it starts from the identity ranking.
func NewRankState(maxApps int, interval int64) *RankState {
	s := &RankState{
		interval: interval,
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
	if app >= 0 && app < len(s.counts) {
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
	byLoad := make([]ac, len(s.counts))
	for a := range byLoad {
		byLoad[a] = ac{app: a, count: s.counts[a]}
		s.counts[a] = 0
	}
	sort.SliceStable(byLoad, func(i, j int) bool { return byLoad[i].count < byLoad[j].count })
	for r, e := range byLoad {
		s.ranks[e.app] = r
	}
}

// Rank returns the current rank of app; applications outside the ranking
// (adversarial traffic with an unranked id, say) get the worst rank, the
// number of ranked applications.
func (s *RankState) Rank(app int) int {
	if app < 0 || app >= len(s.ranks) {
		return len(s.ranks)
	}
	return s.ranks[app]
}
