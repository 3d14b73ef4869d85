package harness

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace under testdata/")

const goldenPath = "testdata/golden_trace.txt"

// goldenRun executes the pinned scenario — the Figure 9 two-app layout at
// 0.5 load under RA_RAIR, seed 11 — and returns one line per ejected packet
// in ejection order.
func goldenRun() []string {
	regs, apps := Fig9Scenario(0.5)
	rc := RunConfig{
		Regions: regs, Router: synthCfg(), Apps: apps,
		Scheme: RAIR("RA_RAIR"),
		Dur:    Durations{Warmup: 500, Measure: 3000, Drain: 6000},
		Seed:   11,
	}
	var lines []string
	col := stats.NewCollector(rc.Dur.Warmup, rc.Dur.Warmup+rc.Dur.Measure)
	mesh := rc.Regions.Mesh()
	net := network.New(network.Params{
		Router:  rc.Router,
		Regions: rc.Regions,
		Alg:     rc.Scheme.Alg(mesh),
		Sel:     rc.Scheme.Sel(rc.Regions, rc.Router),
		Policy:  rc.Scheme.Policy,
		// Panic-mode invariant checking: the golden run doubles as the
		// mask-shadow cross-check, auditing every incrementally-maintained
		// bitmask against a slow reference scan at the checking barriers.
		Check: &invariant.Config{Every: 64},
		OnEject: func(p *msg.Packet, now int64) {
			col.OnEject(p, now)
			lines = append(lines, ejectLine(p))
		},
	})
	defer net.Close()
	gen := traffic.NewGenerator(rc.Apps, rc.Seed, func(node int, p *msg.Packet, now int64) {
		net.NI(node).Inject(p, now)
	})
	end := rc.Dur.Warmup + rc.Dur.Measure
	gen.Until = end
	eng := sim.NewEngine()
	eng.Register(gen)
	eng.Register(net)
	eng.Run(end)
	eng.RunUntil(net.Drained, rc.Dur.Drain)
	return lines
}

// ejectLine is one ejected packet as the golden traces and the metamorphic
// digests record it.
func ejectLine(p *msg.Packet) string {
	return fmt.Sprintf("pkt %d app %d %d>%d flits %d eject %d lat %d hops %d",
		p.ID, p.App, p.Src, p.Dst, p.Size, p.EjectedAt, p.TotalLatency(), p.Hops)
}

// renderGolden formats the trace file: a header, the first 64 ejections
// verbatim, then the ejection total and an FNV-64a digest of every line (so
// drift anywhere in the run fails the comparison, not just in the prefix).
func renderGolden(lines []string) string {
	return renderTrace([]string{
		"# Golden ejection trace: Fig9 scenario, 0.5 load, RA_RAIR, seed 11.",
		"# Regenerate with: go test ./internal/harness -run TestGoldenTrace -update",
	}, lines)
}

// renderTrace formats any golden trace file: header comment lines, the
// first 64 ejections verbatim, then the total and whole-run digest.
func renderTrace(header, lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	var b strings.Builder
	for _, l := range header {
		b.WriteString(l)
		b.WriteString("\n")
	}
	n := len(lines)
	if n > 64 {
		n = 64
	}
	for _, l := range lines[:n] {
		b.WriteString(l)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "total %d fnv64a %016x\n", len(lines), h.Sum64())
	return b.String()
}

// TestGoldenTrace locks down the simulator's exact behavior: the per-packet
// ejection order and latencies of a seeded run must match the committed
// trace bit for bit. Any change to routing, arbitration, pipeline timing or
// RNG consumption shows up here; if the change is intended, regenerate with
// -update and review the diff.
func TestGoldenTrace(t *testing.T) {
	got := renderGolden(goldenRun())
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden trace (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("golden trace drift at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update if intended)",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden trace length drift: got %d lines, want %d (regenerate with -update if intended)",
		len(gl), len(wl))
}

// TestGoldenTraceStable guards the golden scenario itself: two in-process
// runs must agree, otherwise the trace file would churn on every regen.
func TestGoldenTraceStable(t *testing.T) {
	if testing.Short() {
		t.Skip("second golden run in -short mode")
	}
	a, b := goldenRun(), goldenRun()
	if len(a) != len(b) {
		t.Fatalf("rerun ejected %d packets, first run %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rerun diverges at ejection %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
