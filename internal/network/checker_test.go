package network

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/obs"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// buildChecked returns a test network over regions with p's checker,
// workers and telemetry, and the slice its ejections land in.
func buildChecked(t testing.TB, regions *region.Map, p Params) (*Network, *[]*msg.Packet) {
	t.Helper()
	mesh := regions.Mesh()
	var delivered []*msg.Packet
	p.Router = router.DefaultConfig(1)
	p.Regions = regions
	p.Alg = routing.MinimalAdaptive{Mesh: mesh}
	p.Sel = routing.LocalSelector{}
	p.OnEject = func(p *msg.Packet, now int64) { delivered = append(delivered, p) }
	n := New(p)
	return n, &delivered
}

// injectAllPairs injects one packet for every (src, dst) pair at cycle 0 and
// returns the count.
func injectAllPairs(n *Network) int {
	id := uint64(0)
	mesh := n.Mesh()
	for s := 0; s < mesh.N(); s++ {
		for d := 0; d < mesh.N(); d++ {
			if s == d {
				continue
			}
			id++
			n.Inject(&msg.Packet{ID: id, Src: s, Dst: d, Size: 3, Class: msg.ClassRequest}, 0)
		}
	}
	return int(id)
}

// TestCheckerCatchesSeededCreditLeak is the seeded-bug acceptance test: a
// credit stolen from a router's counter (DebugDropCredit) must be
// caught by the credit-accounting check, naming the router, port and VC.
func TestCheckerCatchesSeededCreditLeak(t *testing.T) {
	n, _ := buildChecked(t, mesh4(), Params{
		Check: &invariant.Config{Mode: invariant.ModeCollect},
	})
	defer n.Close()
	injectAllPairs(n)
	for c := int64(0); c < 50; c++ {
		n.Tick(c)
	}
	chk := n.Checker()
	if err := chk.Err(); err != nil {
		t.Fatalf("violations before the seeded bug: %v", err)
	}
	// Steal one credit from router 5's east output port (the sender side of
	// link r5>r6), VC 0.
	n.routers[5].DebugDropCredit(topology.East, 0)
	for c := int64(50); c < 60; c++ {
		n.Tick(c)
	}
	err := chk.Err()
	if err == nil {
		t.Fatal("checker missed the seeded credit leak")
	}
	found := false
	for _, l := range strings.Split(err.Error(), "\n") {
		if strings.Contains(l, ": credit-accounting: ") && strings.Contains(l, "r5>r6") && strings.Contains(l, "vc 0") {
			found = true
			break
		}
	}
	if !found || !strings.Contains(err.Error(), "invariant violation") {
		t.Fatalf("no credit-accounting violation naming r5>r6 vc 0; got %v", err)
	}
}

// TestCheckerCatchesStaleNativeBit: a packet whose application changes
// while it holds an input VC leaves that VC's native bit (set at head
// arrival) disagreeing with its owner at every router the packet spans,
// which the native-mask check must name. The popcount against OVC_n still
// balances, so those are the only lines.
func TestCheckerCatchesStaleNativeBit(t *testing.T) {
	n, _ := buildChecked(t, mesh4(), Params{
		Check: &invariant.Config{Mode: invariant.ModeCollect},
	})
	defer n.Close()
	p := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 15, Size: 40, Class: msg.ClassRequest}
	n.Inject(p, 0)
	// Tick until a router downstream of the source holds the packet.
	var holder *router.Router
	for c := int64(0); c < 200 && holder == nil; c++ {
		n.Tick(c)
		for _, r := range n.routers[1:] {
			for d := topology.Dir(0); d < topology.NumDirs; d++ {
				r.AuditInputVCs(d, func(s router.InputVCState) {
					if s.Owner == p && s.Native {
						holder = r
					}
				})
			}
		}
		if holder != nil {
			p.App = 1
			n.Tick(c + 1)
		}
	}
	err := n.Checker().Err()
	if holder == nil || err == nil {
		t.Fatalf("held by %v, checker error %v", holder, err)
	}
	lines := strings.Split(strings.TrimSpace(err.Error()), "\n")[1:]
	for _, l := range lines {
		if !strings.Contains(l, ": native-mask: ") || !strings.Contains(l, "native bit true") {
			t.Fatalf("want native-mask violations only, got %v", err)
		}
	}
	if !strings.Contains(err.Error(), fmt.Sprintf(": native-mask: router %d ", holder.Node())) {
		t.Fatalf("no native-mask violation at router %d: %v", holder.Node(), err)
	}
}

// matrixRun executes a random mixed-size workload at a given worker count
// with the checker on or off, and returns the ejection sequence plus the
// telemetry report rendered as JSON.
func matrixRun(t *testing.T, workers int, check bool) (seq []string, telJSON string) {
	t.Helper()
	col := telemetry.NewCollector(telemetry.Config{Window: 512})
	var chk *invariant.Config
	if check {
		chk = &invariant.Config{} // panic mode: a violation fails loudly
	}
	n, delivered := buildChecked(t, mesh4(), Params{
		Check:     chk,
		Workers:   workers,
		Telemetry: col,
	})
	defer n.Close()

	// A deterministic random workload: same seed, same injections.
	rng := sim.NewRNG(77)
	id := uint64(0)
	for c := int64(0); c < 4000; c++ {
		if c < 2000 && rng.Bool(0.25) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				id++
				size := 1
				if rng.Bool(0.5) {
					size = 5
				}
				n.Inject(&msg.Packet{ID: id, Src: src, Dst: dst, Size: size, Class: msg.ClassRequest}, c)
			}
		}
		n.Tick(c)
	}
	for c := int64(4000); c < 100000 && !n.Drained(); c++ {
		n.Tick(c)
	}
	if got := len(*delivered); got != int(id) {
		t.Fatalf("workers=%d check=%v: delivered %d of %d", workers, check, got, id)
	}
	for _, p := range *delivered {
		seq = append(seq, fmt.Sprintf("%d@%d", p.ID, p.EjectedAt))
	}
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, col.Report()); err != nil {
		t.Fatalf("telemetry report: %v", err)
	}
	return seq, buf.String()
}

// TestCheckerDeterminismMatrix: the checker being enabled or disabled and
// any tick-engine worker count must not change results — all six
// combinations produce bit-identical ejection sequences and telemetry
// reports, so the checker is observer-only.
func TestCheckerDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	refSeq, refTel := matrixRun(t, 0, false)
	if len(refSeq) == 0 {
		t.Fatal("reference run delivered nothing")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, check := range []bool{false, true} {
			if workers <= 1 && !check {
				continue // the reference configuration
			}
			seq, tel := matrixRun(t, workers, check)
			if len(seq) != len(refSeq) {
				t.Fatalf("workers=%d check=%v: %d ejections, reference %d",
					workers, check, len(seq), len(refSeq))
			}
			for i := range seq {
				if seq[i] != refSeq[i] {
					t.Fatalf("workers=%d check=%v: ejection %d = %s, reference %s",
						workers, check, i, seq[i], refSeq[i])
				}
			}
			if tel != refTel {
				t.Errorf("workers=%d check=%v: telemetry report differs from reference",
					workers, check)
			}
		}
	}
}
