package harness

import (
	"fmt"

	"rair/internal/collective"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/sim"
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
	return regs, parsecStreams(regs, -1)
}

// parsecStreams builds one address stream per node: application i of the
// layout runs workload.Profiles()[i mod 4]; nodes of the idle application
// (-1 for none) and nodes no application owns issue nothing.
func parsecStreams(regs *region.Map, idle int) []memsys.AddressStream {
	profiles := workload.Profiles()
	streams := make([]memsys.AddressStream, regs.Mesh().N())
	for node := range streams {
		if app := regs.AppAt(node); app >= 0 && app != idle {
			streams[node] = workload.NewStream(profiles[app%len(profiles)], app, node)
		}
	}
	return streams
}

// parsecNames names the first n PARSEC proxies, in application order.
func parsecNames(n int) []string {
	names := make([]string, n)
	for i, p := range workload.Profiles()[:n] {
		names[i] = p.Name
	}
	return names
}

// PARSECRanks is the oracle STC ranking of the PARSEC proxies by network
// intensity (blackscholes least intensive). The adversary is unranked and
// therefore bottom-priority, matching the paper's optimally-ranked RO_Rank.
func PARSECRanks() []int { return []int{0, 1, 2, 3} }

// MemsysRouterConfig is the two-class router configuration for the
// application experiments (requests and responses on disjoint VC sets).
func MemsysRouterConfig() router.Config { return router.DefaultConfig(int(msg.NumClasses)) }

// MemsysAttach builds the Table 1 memory system over the PARSEC proxies'
// address streams (idle as in parsecStreams), functionally prewarmed, as a
// run's first source. The system sees every ejection before the collector and
// recycles its protocol messages itself, so the run's pool must not.
func MemsysAttach(cfg memsys.SystemConfig, regs *region.Map, idle int, seed uint64, inject Inject) Attached {
	sys := memsys.New(cfg, regs, parsecStreams(regs, idle), seed, inject)
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

// AddCollective appends a collective workload over spec as the
// attachment's last source, sending until cycle until. Its packets are
// delivered back to the source (driving the phase dependency barriers) before
// any earlier ejection rule sees them and never reach the collector, so the
// run's latency figures measure the victim applications only. Read the
// returned source's Progress after the run.
func (a *Attached) AddCollective(spec collective.Spec, seed uint64, until int64, inject Inject, pool *msg.Pool) *collective.Source {
	src := collective.NewSource(spec, seed, inject)
	src.Until = until
	src.Pool = pool
	a.Sources = append(a.Sources, src)
	rest := a.OnEject
	a.OnEject = func(p *msg.Packet, now int64) bool {
		if p.App == spec.App {
			src.Deliver(p, now)
			return false
		}
		return rest == nil || rest(p, now)
	}
	return src
}

// parsecConfig is one PARSEC-proxy simulation point under a scheme,
// optionally with the adversarial injector.
func parsecConfig(s Scheme, withAdversary bool, dur Durations, seed uint64) RunConfig {
	regs := region.Quadrants(Mesh8())
	return RunConfig{
		Regions: regs, Router: MemsysRouterConfig(), Scheme: s, Dur: dur, Seed: seed,
		Attach: func(inject Inject, pool *msg.Pool) Attached {
			att := MemsysAttach(memsys.DefaultSystemConfig(), regs, -1, seed, inject)
			if withAdversary {
				att.AddAdversary(regs.Mesh(), AdversaryApp, AdversaryFlitRate, seed, dur.Warmup+dur.Measure, inject, pool)
			}
			return att
		},
	}
}

// adversarialPanel is the Figure 17 comparison: per scheme, the four PARSEC
// proxies alone and under the adversarial flood.
func adversarialPanel(title string, schemes []Scheme, dur Durations, seed uint64) *Panel {
	return coRunPanel(title, schemes, parsecNames(4), func(_ int, s Scheme) (alone, co RunConfig) {
		return parsecConfig(s, false, dur, seed), parsecConfig(s, true, dur, seed)
	})
}

// Fig17Adversarial reproduces Figure 17: APL slowdown of the four PARSEC
// proxies when chip-wide adversarial traffic is added, per scheme.
func Fig17Adversarial(dur Durations, seed uint64) *Panel {
	return adversarialPanel("Figure 17: APL slowdown under adversarial traffic (PARSEC proxies)",
		ComparedSchemes(PARSECRanks()), dur, seed)
}

// AblateBatching sweeps RO_Rank's batching interval under the adversarial
// flood: fine batches drain the deprioritized flood steadily, coarse
// batches let it hog VC buffers — the balance Section III.A alludes to.
func AblateBatching(intervals []int64, dur Durations, seed uint64) *Panel {
	schemes := make([]Scheme, 0, len(intervals))
	for _, iv := range intervals {
		s := RORank(PARSECRanks())
		s.Name, s.Policy.Batch = fmt.Sprintf("RO_Rank_B%d", iv), iv
		schemes = append(schemes, s)
	}
	return adversarialPanel("STC batching-interval ablation under the adversarial flood", schemes, dur, seed)
}

// PrewarmAccesses is how many address-stream accesses each core runs
// through the cache hierarchy before timing starts (functional cache
// warmup, mirroring the paper's full-system methodology). Large enough to
// fill every proxy's working set several times over.
const PrewarmAccesses = 60000
