package harness

import (
	"fmt"
	"testing"

	"rair/internal/collective"
	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/traffic"
)

const goldenCollectivePath = "testdata/golden_collective.txt"

// goldenCollectiveRun executes the pinned collective co-run — the synthetic
// victim scenario with a ring AllReduce in quadrant 3 under RA_RAIR, seed 11
// — and returns one line per ejected packet (victim and collective streams
// both) in ejection order. Collective packets are recognizable by their
// offset ID space and app 3.
func goldenCollectiveRun() []string {
	regs, apps, spec := CollectiveScenario(collective.RingAllReduce)
	dur := Durations{Warmup: 500, Measure: 3000, Drain: 6000}
	scheme := RAIR("RA_RAIR")
	cfg := synthCfg()
	mesh := regs.Mesh()

	var lines []string
	col := stats.NewCollector(dur.Warmup, dur.Warmup+dur.Measure)
	var src *collective.Source
	net := network.New(network.Params{
		Router:  cfg,
		Regions: regs,
		Alg:     scheme.Alg(mesh),
		Sel:     scheme.Sel(regs, cfg),
		Policy:  scheme.Policy,
		Check:   &invariant.Config{Every: 64},
		OnEject: func(p *msg.Packet, now int64) {
			lines = append(lines, fmt.Sprintf("pkt %d app %d %d>%d flits %d eject %d lat %d hops %d",
				p.ID, p.App, p.Src, p.Dst, p.Size, p.EjectedAt, p.TotalLatency(), p.Hops))
			if p.App == spec.App {
				src.Deliver(p, now)
				return
			}
			col.OnEject(p, now)
		},
	})
	defer net.Close()
	inject := func(node int, p *msg.Packet, now int64) { net.Inject(p, now) }
	gen := traffic.NewGenerator(apps, 11, inject)
	end := dur.Warmup + dur.Measure
	gen.Until = end
	src = collective.NewSource(spec, 11, inject)
	src.Until = end
	eng := sim.NewEngine()
	eng.Register(gen)
	eng.Register(src)
	eng.Register(net)
	eng.Run(end)
	eng.RunUntil(net.Drained, dur.Drain)
	return lines
}

// TestGoldenCollectiveTrace locks down the collective co-run's exact
// behavior the way TestGoldenTrace does for the open-loop generator: the
// interleaved ejection order of victim and collective packets of a seeded
// run must match the committed trace bit for bit. The closed-loop source
// makes this a stronger check than the open-loop golden — any timing drift
// feeds back into the collective's send schedule and amplifies.
func TestGoldenCollectiveTrace(t *testing.T) {
	lines := goldenCollectiveRun()
	got := renderTrace([]string{
		"# Golden collective co-run trace: synthetic victims + ring AllReduce in quadrant 3, RA_RAIR, seed 11.",
		"# Regenerate with: RAIR_UPDATE_GOLDENS=1 go test ./internal/harness -run TestGoldenCollectiveTrace",
	}, lines)
	checkGolden(t, goldenCollectivePath, got)
}
