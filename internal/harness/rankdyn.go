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
	return Run(RunConfig{
		Regions: regs, Router: synthCfg(), Dur: dur, Seed: seed,
		Scheme: Scheme{Name: "RO_RankDyn", Policy: policy.NewDynRankFactory(state)},
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

// RankDynResult compares the oracle and measured STC variants against
// RO_RR on the six-application scenario.
type RankDynResult struct {
	Apps []int
	// APL[variant][app]: 0 = RO_RR, 1 = oracle RO_Rank, 2 = RO_RankDyn.
	APL [][]float64
}

// Names are the compared variants in APL order.
func (r *RankDynResult) Names() []string { return []string{"RO_RR", "RO_Rank(oracle)", "RO_RankDyn"} }

// Table renders the comparison.
func (r *RankDynResult) Table() *Table {
	t := &Table{
		Title:  "Oracle vs measured STC ranking (six-application scenario)",
		Header: []string{"scheme", "avg reduction vs RO_RR"},
	}
	base := r.APL[0]
	for vi, name := range r.Names() {
		if vi == 0 {
			t.AddRow(name, "-")
			continue
		}
		sum := 0.0
		for ai := range r.Apps {
			sum += stats.Reduction(base[ai], r.APL[vi][ai])
		}
		t.AddRow(name, pct(sum/float64(len(r.Apps))))
	}
	return t
}

// AblateRankOracle quantifies what the paper's "optimal ranking" assumption
// is worth: oracle RO_Rank vs the measured interval-based ranking.
func AblateRankOracle(dur Durations, seed uint64) *RankDynResult {
	regs, apps := Fig14Scenario("UR")
	fig := runFig("", regs, apps, synthCfg(),
		[]Scheme{RORR(), RORank(SixAppRanks())}, dur, seed)
	dyn := RunDynRank(dur, seed)
	res := &RankDynResult{Apps: fig.Apps}
	res.APL = append(res.APL, fig.APL[0], fig.APL[1])
	dynRow := make([]float64, len(fig.Apps))
	for ai, a := range fig.Apps {
		dynRow[ai] = dyn.App(a).Mean()
	}
	res.APL = append(res.APL, dynRow)
	return res
}
