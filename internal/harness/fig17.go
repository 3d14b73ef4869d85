package harness

import (
	"fmt"

	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/topology"
	"rair/internal/traffic"
	"rair/internal/workload"
)

// AdversaryApp is the application number of the adversarial injector; it is
// assigned to no region, so its traffic is foreign everywhere.
const AdversaryApp = 4

// AdversaryFlitRate is the malicious load of Section V.G, calibrated to
// reproduce the paper's operating point rather than its absolute number.
// The paper injects 0.4 flits/cycle/node of chip-wide uniform traffic and
// still measures finite (≈2x) slowdowns, i.e. the flood sits right at the
// baseline's capacity knee. Our router's achieved saturation is lower
// (≈75% of the ideal channel bound) and the warmed PARSEC proxies leave a
// different headroom, so the equivalent knee sits at 0.16 flits/cycle/node:
// the round-robin baseline is pushed past its knee while the protective
// schemes still keep the applications close to their undisturbed latency —
// exactly the regime Figure 17 reports. See EXPERIMENTS.md for the
// calibration sweep.
const AdversaryFlitRate = 0.16

// PARSECScenario builds the four-application setup of Figure 16: the PARSEC
// proxies on the quadrants of the 8×8 mesh (blackscholes, swaptions,
// fluidanimate, raytrace in quadrant order), driven through the Table 1
// memory system.
func PARSECScenario() (*region.Map, []memsys.AddressStream) {
	regs := region.Quadrants(Mesh8())
	profiles := workload.Profiles()
	streams := make([]memsys.AddressStream, regs.Mesh().N())
	for node := range streams {
		app := regs.AppAt(node)
		streams[node] = workload.NewStream(profiles[app], app, node)
	}
	return regs, streams
}

// PARSECRanks is the oracle STC ranking of the PARSEC proxies by network
// intensity (blackscholes least intensive). The adversary is unranked and
// therefore bottom-priority, matching the paper's optimally-ranked RO_Rank.
func PARSECRanks() []int { return []int{0, 1, 2, 3} }

// Fig17Result holds the per-application APL slowdown caused by adversarial
// traffic under each scheme.
type Fig17Result struct {
	Title   string
	Schemes []string
	Apps    []string
	// Base/Adv APL [scheme][app]; Slowdown = Adv/Base.
	Base [][]float64
	Adv  [][]float64
}

// Slowdown returns the APL slowdown of app ai under scheme si.
func (r *Fig17Result) Slowdown(si, ai int) float64 {
	return stats.Slowdown(r.Base[si][ai], r.Adv[si][ai])
}

// AvgSlowdown returns the mean per-app slowdown of scheme si.
func (r *Fig17Result) AvgSlowdown(si int) float64 {
	sum := 0.0
	for ai := range r.Apps {
		sum += r.Slowdown(si, ai)
	}
	return sum / float64(len(r.Apps))
}

// Table renders the slowdown matrix.
func (r *Fig17Result) Table() *Table {
	title := r.Title
	if title == "" {
		title = "APL slowdown under adversarial traffic (PARSEC proxies)"
	}
	t := &Table{
		Title:  title,
		Header: append(append([]string{"scheme"}, r.Apps...), "average"),
	}
	for si, s := range r.Schemes {
		row := []string{s}
		for ai := range r.Apps {
			row = append(row, f2(r.Slowdown(si, ai)))
		}
		row = append(row, f2(r.AvgSlowdown(si)))
		t.AddRow(row...)
	}
	return t
}

// MemsysRouterConfig is the two-class router configuration for the
// application experiments (requests and responses on disjoint VC sets).
func MemsysRouterConfig() router.Config { return router.DefaultConfig(int(msg.NumClasses)) }

// MemsysAttach builds the Table 1 memory system over the address streams
// (functionally prewarmed) as a run's first source. The system sees every
// ejection before the collector and retains its request packets across
// protocol round-trips, so the run allocates packets instead of recycling.
func MemsysAttach(cfg memsys.SystemConfig, regs *region.Map, streams []memsys.AddressStream, seed uint64, inject Inject) Attached {
	sys := memsys.New(cfg, regs, streams, seed, inject)
	sys.Prewarm(PrewarmAccesses)
	return Attached{
		Sources: []sim.Tickable{sys},
		OnEject: func(p *msg.Packet, now int64) bool {
			sys.HandleEject(p, now)
			return true
		},
		Retains: true,
	}
}

// AddAdversary appends the malicious injector of Section V.G to the
// attachment: chip-wide uniform traffic at flitRate flits/node/cycle under
// an application number no region owns, generated until cycle until and
// kept out of the collector (the paper reports the slowdown of the normal
// applications).
func (a *Attached) AddAdversary(mesh *topology.Mesh, app int, flitRate float64, seed uint64, until int64, inject Inject, pool *msg.Pool) {
	adv := traffic.NewGenerator([]traffic.AppTraffic{traffic.Adversary(mesh, app, flitRate/3)}, seed^0xadadad, inject)
	adv.Until = until
	adv.Pool = pool
	a.Sources = append(a.Sources, adv)
	rest := a.OnEject
	a.OnEject = func(p *msg.Packet, now int64) bool {
		return (rest == nil || rest(p, now)) && p.App != app
	}
}

// parsecConfig is one PARSEC-proxy simulation point under a scheme,
// optionally with the adversarial injector.
func parsecConfig(s Scheme, withAdversary bool, dur Durations, seed uint64) RunConfig {
	regs, streams := PARSECScenario()
	return RunConfig{
		Regions: regs, Router: MemsysRouterConfig(), Scheme: s, Dur: dur, Seed: seed,
		Attach: func(inject Inject, pool *msg.Pool) Attached {
			att := MemsysAttach(memsys.DefaultSystemConfig(), regs, streams, seed, inject)
			if withAdversary {
				att.AddAdversary(regs.Mesh(), AdversaryApp, AdversaryFlitRate, seed, dur.Warmup+dur.Measure, inject, pool)
			}
			return att
		},
	}
}

// RunPARSEC executes one PARSEC-proxy simulation under a scheme, optionally
// with the adversarial injector, and returns the latency collector (covering
// the applications' packets only).
func RunPARSEC(s Scheme, withAdversary bool, dur Durations, seed uint64) *stats.Collector {
	return Run(parsecConfig(s, withAdversary, dur, seed))
}

// fig17Schemes mirrors the Figures 14-17 comparison with PARSEC ranks for
// RO_Rank.
func fig17Schemes() []Scheme {
	return []Scheme{RORR(), RORRDBAR("RA_DBAR"), RORank(PARSECRanks()), RAIR("RA_RAIR")}
}

// Fig17Adversarial reproduces Figure 17: APL slowdown of the four PARSEC
// proxies when chip-wide adversarial traffic is added, per scheme.
func Fig17Adversarial(dur Durations, seed uint64) *Fig17Result {
	res := adversarialRun(fig17Schemes(), dur, seed)
	res.Title = "Figure 17: APL slowdown under adversarial traffic (PARSEC proxies)"
	return res
}

// AblateAgeBased contrasts the oldest-first baseline (Abts & Weisser, the
// other region-oblivious technique of Section III.A) with RO_RR and RAIR
// under the adversarial flood. Aging both drains the deprioritized flood
// (avoiding buffer hogging) and imposes a global FIFO-like order — where
// the balance lands is an empirical question this ablation answers.
func AblateAgeBased(dur Durations, seed uint64) *Fig17Result {
	schemes := []Scheme{
		RORR(),
		{Name: "RO_Age", Policy: policy.NewAge},
		RAIR("RA_RAIR"),
	}
	res := adversarialRun(schemes, dur, seed)
	res.Title = "Oldest-first arbitration under the adversarial flood"
	return res
}

// AblateBatching sweeps RO_Rank's batching interval under the adversarial
// flood: fine batches drain the deprioritized flood steadily, coarse
// batches let it hog VC buffers — the balance Section III.A alludes to.
func AblateBatching(intervals []int64, dur Durations, seed uint64) *Fig17Result {
	schemes := make([]Scheme, 0, len(intervals))
	for _, iv := range intervals {
		schemes = append(schemes, Scheme{
			Name:   fmt.Sprintf("RO_Rank_B%d", iv),
			Policy: policy.NewRankFactoryInterval(PARSECRanks(), iv),
		})
	}
	res := adversarialRun(schemes, dur, seed)
	res.Title = "STC batching-interval ablation under the adversarial flood"
	return res
}

func adversarialRun(schemes []Scheme, dur Durations, seed uint64) *Fig17Result {
	res := &Fig17Result{}
	for _, p := range workload.Profiles() {
		res.Apps = append(res.Apps, p.Name)
	}
	var rcs []RunConfig
	for _, s := range schemes {
		rcs = append(rcs, parsecConfig(s, false, dur, seed), parsecConfig(s, true, dur, seed))
	}
	cols := RunParallel(rcs)
	for si, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
		res.Base = append(res.Base, appMeans(cols[2*si], len(res.Apps)))
		res.Adv = append(res.Adv, appMeans(cols[2*si+1], len(res.Apps)))
	}
	return res
}

// appMeans returns the APL of applications 0..n-1.
func appMeans(c *stats.Collector, n int) []float64 {
	out := make([]float64, n)
	for app := range out {
		out[app] = c.App(app).Mean()
	}
	return out
}

// String renders a short summary line used by logs.
func (r *Fig17Result) String() string {
	out := ""
	for si, s := range r.Schemes {
		out += fmt.Sprintf("%s=%.2f ", s, r.AvgSlowdown(si))
	}
	return out
}

// PrewarmAccesses is how many address-stream accesses each core runs
// through the cache hierarchy before timing starts (functional cache
// warmup, mirroring the paper's full-system methodology). Large enough to
// fill every proxy's working set several times over.
const PrewarmAccesses = 60000
