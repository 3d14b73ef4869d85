package network

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rair/internal/faults"
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

// buildFaulty returns a test network with fault injection and/or the
// invariant checker attached.
func buildFaulty(t testing.TB, regions *region.Map, p Params) (*Network, *[]*msg.Packet) {
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

// moderateFaults is the standard fault dose for these tests: every fault
// kind active at rates a default retry budget absorbs.
func moderateFaults() *faults.Config {
	return &faults.Config{
		Seed:           5,
		DropProb:       0.002,
		CorruptProb:    0.002,
		CreditLeakProb: 0.002,
		StallProb:      0.002,
		StallLen:       6,
		ReconcileEvery: 256,
	}
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

// TestFaultyDeliveryAndInvariants is the acceptance scenario: with drops,
// corruptions, credit leaks and router stalls all active, every packet is
// still delivered exactly once, the network drains, and the invariant
// checker (panic mode) stays silent throughout.
func TestFaultyDeliveryAndInvariants(t *testing.T) {
	n, delivered := buildFaulty(t, mesh4(), Params{
		Faults: moderateFaults(),
		Check:  &invariant.Config{}, // ModePanic: any violation fails the test
	})
	defer n.Close()
	want := injectAllPairs(n)
	for c := int64(0); c < 100000 && !n.Drained(); c++ {
		n.Tick(c)
	}
	if !n.Drained() {
		t.Fatal("network did not drain under faults")
	}
	if got := len(*delivered); got != want {
		t.Fatalf("delivered %d of %d packets under faults", got, want)
	}
	seen := map[uint64]bool{}
	for _, p := range *delivered {
		if seen[p.ID] {
			t.Fatalf("duplicate delivery of packet %d", p.ID)
		}
		seen[p.ID] = true
	}
	n.CheckDrained()

	rep := n.Faults().Report()
	if rep.Totals.DroppedFlits == 0 || rep.Totals.CorruptedFlits == 0 {
		t.Errorf("fault dose produced no flit faults: %s", rep)
	}
	// Leaks after the last reconcile boundary are still outstanding at
	// drain; a final explicit sweep must account for every one.
	n.Faults().ReconcileAll()
	rep = n.Faults().Report()
	if rep.Totals.CreditLeaks == 0 || rep.Totals.ReconciledCredits != rep.Totals.CreditLeaks {
		t.Errorf("leaked %d credits, reconciled %d; every leak must be accounted for",
			rep.Totals.CreditLeaks, rep.Totals.ReconciledCredits)
	}
	if rep.Totals.LostFlits != 0 {
		t.Errorf("lost %d flits permanently at these rates", rep.Totals.LostFlits)
	}
	if rep.StallCycles == 0 || rep.StalledRouters == 0 {
		t.Errorf("no router stalls recorded: %s", rep)
	}
}

// TestCheckerCatchesSeededCreditLeak is the seeded-bug acceptance test: a
// credit stolen behind the fault injector's back (DebugDropCredit) must be
// caught by the credit-accounting check, naming the router, port and VC.
func TestCheckerCatchesSeededCreditLeak(t *testing.T) {
	n, _ := buildFaulty(t, mesh4(), Params{
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

// faultMatrixRun executes the standard faulty scenario at a given worker
// count with the checker on or off, and returns the ejection sequence plus
// the telemetry report rendered as JSON.
func faultMatrixRun(t *testing.T, workers int, check bool) (seq []string, telJSON string) {
	t.Helper()
	col := telemetry.NewCollector(telemetry.Config{Window: 512})
	var chk *invariant.Config
	if check {
		chk = &invariant.Config{} // panic mode: a violation fails loudly
	}
	n, delivered := buildFaulty(t, mesh4(), Params{
		Faults:    moderateFaults(),
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

// TestFaultDeterminismMatrix: the checker being enabled or disabled and any
// tick-engine worker count must not change results — all six combinations
// produce bit-identical ejection sequences and telemetry reports.
func TestFaultDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	refSeq, refTel := faultMatrixRun(t, 0, false)
	if len(refSeq) == 0 {
		t.Fatal("reference run delivered nothing")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, check := range []bool{false, true} {
			if workers <= 1 && !check {
				continue // the reference configuration
			}
			seq, tel := faultMatrixRun(t, workers, check)
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

// lossyRun drives a random mixed-size workload over a 4x4 mesh whose links
// drop one flit in twenty and retry only once, so some flits — heads, bodies
// and tails — run out of retries, with the checker in panic mode every cycle.
func lossyRun(t *testing.T, workers int) (seq []string, injected int, rep *faults.Report) {
	t.Helper()
	n, delivered := buildFaulty(t, mesh4(), Params{
		Faults:  &faults.Config{Seed: 1, DropProb: 0.05, MaxRetries: 1},
		Check:   &invariant.Config{},
		Workers: workers,
	})
	defer n.Close()
	rng := sim.NewRNG(77)
	c := int64(0)
	for ; c < 3000; c++ {
		if src, dst := rng.Intn(16), rng.Intn(16); src != dst && rng.Bool(0.4) {
			injected++
			size := 1 + 4*rng.Intn(2)
			n.Inject(&msg.Packet{ID: uint64(injected), Src: src, Dst: dst, Size: size, Class: msg.ClassRequest}, c)
		}
		n.Tick(c)
	}
	for ; c < 100000 && !n.Drained(); c++ {
		n.Tick(c)
	}
	if !n.Drained() {
		inside, inflight := n.FlitConservation()
		t.Fatalf("workers=%d: not drained: %d packets in flight, %d flits or busy links inside", workers, inflight, inside)
	}
	for _, p := range *delivered {
		if p.Lost {
			t.Errorf("workers=%d: lost packet %v reached the ejection observer", workers, p)
		}
		seq = append(seq, fmt.Sprintf("%d@%d", p.ID, p.EjectedAt))
	}
	return seq, injected, n.Faults().Report()
}

// TestPermanentLossIsPacketGranular is rairsim's -faults drop=...,retries=1
// crash (a lost head flit orphaned its body flits; a lost tail pinned its VCs)
// as a test: a flit out of retries travels on damaged, so every VC, buffer
// slot and credit unwinds through the tail, the network drains with the
// invariants clean, and each packet that lost a flit is counted once and kept
// from the observers — identically at one and two workers.
func TestPermanentLossIsPacketGranular(t *testing.T) {
	seq, injected, rep := lossyRun(t, 1)
	lost := rep.Totals.LostPackets
	if lost == 0 || rep.Totals.LostFlits < lost {
		t.Fatalf("dose lost %d flits in %d packets, want some: %s", rep.Totals.LostFlits, lost, rep)
	}
	if int64(injected) != int64(len(seq))+lost {
		t.Errorf("injected %d != delivered %d + lost %d", injected, len(seq), lost)
	}
	seq2, _, rep2 := lossyRun(t, 2)
	if !slices.Equal(seq, seq2) || rep.String() != rep2.String() {
		t.Errorf("two workers diverge from one: %d vs %d deliveries\n%s\n%s", len(seq2), len(seq), rep2, rep)
	}
}
