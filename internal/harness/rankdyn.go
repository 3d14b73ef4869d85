package harness

import (
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/traffic"
)

// RankDynInterval is the measured-STC re-ranking interval in cycles (Das et
// al. re-rank periodically; the paper's RO_Rank idealizes this away).
const RankDynInterval = 2000

// RunDynRank executes the six-application scenario under the measured
// (non-oracle) STC: application ranks are recomputed every
// RankDynInterval cycles from observed injection counts.
func RunDynRank(dur Durations, seed uint64) *stats.Collector {
	regs, apps := Fig14Scenario("UR")
	state := policy.NewRankState(regs.NumApps(), RankDynInterval)
	end := dur.Warmup + dur.Measure
	s := scheme("RO_Rank", "RO_RankDyn")
	s.Policy.Ranks = state
	return Run(RunConfig{
		Regions: regs, Router: synthCfg(), Dur: dur, Seed: seed, Scheme: s,
		// The generator is built here rather than from Apps so that every
		// injection is also reported to the ranking state, and so that the
		// re-ranking step ticks ahead of it. Ranks freeze with the traffic
		// at the end of the measurement window.
		Attach: func(inject Inject, pool *msg.Pool) Attached {
			gen := traffic.NewGenerator(apps, seed, func(node int, p *msg.Packet, now int64) {
				state.Observe(p.App)
				inject(node, p, now)
			})
			gen.Until = end
			gen.Pool = pool
			rerank := sim.TickFunc(func(now int64) {
				if now < end {
					state.Advance(now)
				}
			})
			return Attached{Sources: []sim.Tickable{rerank, gen}}
		},
	})
}

// AblateRankOracle quantifies what the paper's "optimal ranking" assumption
// is worth on the six-application scenario: RO_RR, oracle RO_Rank and the
// measured interval-based ranking, in that row order.
func AblateRankOracle(dur Durations, seed uint64) *Panel {
	regs, apps := Fig14Scenario("UR")
	p := schemePanel("", regs, apps, []Scheme{RORR(), RORank(SixAppRanks())}, dur, seed)
	return newPanel("Oracle vs measured STC ranking (six-application scenario)",
		[]string{"RO_RR", "RO_Rank(oracle)", "RO_RankDyn"}, append(p.Cols, RunDynRank(dur, seed)), p.Apps)
}

// RankTable renders AblateRankOracle: the average reduction per variant.
func (p *Panel) RankTable() *Table {
	t := &Table{Title: p.Title, Header: []string{"scheme", "avg reduction vs " + p.Labels[0]}}
	t.AddRow(p.Labels[0], "-")
	for ri := 1; ri < len(p.Labels); ri++ {
		t.AddRow(p.Labels[ri], pct(p.AvgReduction(ri)))
	}
	return t
}
