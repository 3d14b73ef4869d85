package harness

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/traffic"
)

const goldenPath = "testdata/golden_trace.txt"

// goldenRun executes the pinned scenario — the Figure 9 two-app layout at
// 0.5 load under RA_RAIR, seed 11 — and returns one line per ejected packet
// in ejection order.
func goldenRun() []string {
	rc := Fig9Scenario(0.5).RunConfig
	rc.Router, rc.Scheme, rc.Seed = synthCfg(), RAIR("RA_RAIR"), 11
	rc.Dur = Durations{Warmup: 500, Measure: 3000, Drain: 6000}
	var lines []string
	col := stats.NewCollector(rc.Dur.Warmup, rc.Dur.Warmup+rc.Dur.Measure)
	mesh := rc.Regions.Mesh()
	net := network.New(network.Params{
		Router:  rc.Router,
		Regions: rc.Regions,
		Alg:     rc.Scheme.Alg(mesh),
		Sel:     rc.Scheme.Sel(rc.Regions, rc.Router),
		Policy:  rc.Scheme.Policy,
		// Panic-mode invariant checking: the golden run doubles as a
		// conservation, credit-accounting, VC-allocation and hop-progress
		// audit at the checking barriers.
		Check: &invariant.Config{Every: 64},
		OnEject: func(p *msg.Packet, now int64) {
			col.OnEject(p, now)
			lines = append(lines, ejectLine(p))
		},
	})
	defer net.Close()
	gen := traffic.NewGenerator(rc.Apps, rc.Seed, func(node int, p *msg.Packet, now int64) {
		net.Inject(p, now)
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
		"# Regenerate with: RAIR_UPDATE_GOLDENS=1 go test ./internal/harness -run TestGoldenTrace",
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

// checkGolden compares got with the committed file at path and reports the
// first line that drifted; under RAIR_UPDATE_GOLDENS=1 it rewrites the file
// instead, as every golden test of the module does.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("RAIR_UPDATE_GOLDENS") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with RAIR_UPDATE_GOLDENS=1): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s drifts at line %d:\n  got:  %s\n  want: %s\n(regenerate with RAIR_UPDATE_GOLDENS=1 if intended)",
				path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s drifts in length: got %d lines, want %d (regenerate with RAIR_UPDATE_GOLDENS=1 if intended)",
			path, len(gl), len(wl))
	}
}

// TestGoldenTrace locks down the simulator's exact behavior: the per-packet
// ejection order and latencies of a seeded run must match the committed
// trace bit for bit. Any change to routing, arbitration, pipeline timing or
// RNG consumption shows up here; if the change is intended, regenerate with
// RAIR_UPDATE_GOLDENS=1 and review the diff.
func TestGoldenTrace(t *testing.T) {
	checkGolden(t, goldenPath, renderGolden(goldenRun()))
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
