package invariant_test

import (
	"strings"
	"testing"

	"rair/internal/faults"
	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/topology"
)

// build wires a 4x4 single-region network with the given checker and fault
// configurations.
func build(t testing.TB, chk *invariant.Config, fl *faults.Config) *network.Network {
	t.Helper()
	regions := region.Single(topology.NewMesh(4, 4))
	mesh := regions.Mesh()
	return network.New(network.Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: mesh},
		Sel:     routing.LocalSelector{},
		Policy:  policy.NewRoundRobin,
		Check:   chk,
		Faults:  fl,
	})
}

func inject(n *network.Network, id uint64, src, dst, size int, now int64) {
	n.NI(src).Inject(&msg.Packet{ID: id, Src: src, Dst: dst, Size: size, Class: msg.ClassRequest}, now)
}

// TestCleanRun: a healthy network under load never violates an invariant.
func TestCleanRun(t *testing.T) {
	n := build(t, &invariant.Config{Mode: invariant.ModeCollect}, nil)
	defer n.Close()
	id := uint64(0)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				id++
				inject(n, id, s, d, 3, 0)
			}
		}
	}
	for c := int64(0); c < 20000 && !n.Drained(); c++ {
		n.Tick(c)
	}
	if !n.Drained() {
		t.Fatal("network did not drain")
	}
	if err := n.Checker().Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

// TestWatchdogTrips: routers whose pipelines never unfreeze wedge the
// traffic; the no-forward-progress watchdog must trip exactly once, naming
// the in-flight count.
func TestWatchdogTrips(t *testing.T) {
	fl := &faults.Config{
		Seed:      1,
		StallProb: 1, StallLen: 1 << 30,
	}
	n := build(t, &invariant.Config{Watchdog: 100, Mode: invariant.ModeCollect}, fl)
	defer n.Close()
	inject(n, 1, 0, 10, 3, 0)
	for c := int64(0); c < 1000; c++ {
		n.Tick(c)
	}
	vs := n.Checker().Violations()
	if len(vs) != 1 {
		t.Fatalf("watchdog violations = %d, want exactly 1: %v", len(vs), n.Checker().Err())
	}
	v := vs[0]
	if v.Check != "watchdog" {
		t.Fatalf("violation check = %q, want watchdog", v.Check)
	}
	if !strings.Contains(v.Msg, "no flit ejected") || !strings.Contains(v.Msg, "in flight") {
		t.Errorf("watchdog message lacks diagnosis: %q", v.Msg)
	}
}

// TestWatchdogDisabled: a negative Watchdog turns the deadlock check off
// even with wedged traffic.
func TestWatchdogDisabled(t *testing.T) {
	fl := &faults.Config{
		Seed:      1,
		StallProb: 1, StallLen: 1 << 30,
	}
	n := build(t, &invariant.Config{Watchdog: -1, Mode: invariant.ModeCollect}, fl)
	defer n.Close()
	inject(n, 1, 0, 10, 3, 0)
	for c := int64(0); c < 1000; c++ {
		n.Tick(c)
	}
	if err := n.Checker().Err(); err != nil {
		t.Fatalf("disabled watchdog still reported: %v", err)
	}
}

// TestCheckingPeriod: with Every=8, a seeded bug is only observed at a
// checking barrier ((cycle+1) divisible by 8).
func TestCheckingPeriod(t *testing.T) {
	n := build(t, &invariant.Config{Every: 8, Mode: invariant.ModeCollect}, nil)
	defer n.Close()
	inject(n, 1, 0, 15, 3, 0)
	for c := int64(0); c < 10; c++ {
		n.Tick(c)
	}
	n.Router(5).DebugDropCredit(topology.East, 0)
	for c := int64(10); c < 40; c++ {
		n.Tick(c)
	}
	vs := n.Checker().Violations()
	if len(vs) == 0 {
		t.Fatal("seeded bug not caught")
	}
	for _, v := range vs {
		if (v.Cycle+1)%8 != 0 {
			t.Fatalf("violation observed at cycle %d, off the Every=8 barrier", v.Cycle)
		}
	}
}

// TestCollectLimit: ModeCollect stops recording at Limit.
func TestCollectLimit(t *testing.T) {
	n := build(t, &invariant.Config{Mode: invariant.ModeCollect, Limit: 3}, nil)
	defer n.Close()
	n.Router(5).DebugDropCredit(topology.East, 0)
	for c := int64(0); c < 50; c++ {
		n.Tick(c)
	}
	if got := len(n.Checker().Violations()); got != 3 {
		t.Fatalf("recorded %d violations with Limit 3", got)
	}
	if err := n.Checker().Err(); err == nil || !strings.Contains(err.Error(), "3 invariant violation(s)") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestPanicMode: the default mode panics on the first violation.
func TestPanicMode(t *testing.T) {
	n := build(t, &invariant.Config{}, nil)
	defer n.Close()
	n.Router(5).DebugDropCredit(topology.East, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic from ModePanic on a seeded bug")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "credit-accounting") {
			t.Fatalf("panic value %v, want a credit-accounting violation", r)
		}
	}()
	n.Tick(0)
}

// TestHopBound: an artificially tight MaxHops flags legitimate multi-hop
// packets, proving the hop audit observes in-flight traffic.
func TestHopBound(t *testing.T) {
	n := build(t, &invariant.Config{MaxHops: 1, Mode: invariant.ModeCollect}, nil)
	defer n.Close()
	inject(n, 1, 0, 15, 3, 0) // 6 router hops corner to corner
	for c := int64(0); c < 200 && !n.Drained(); c++ {
		n.Tick(c)
	}
	found := false
	for _, v := range n.Checker().Violations() {
		if v.Check == "hop-progress" && strings.Contains(v.Msg, "> bound 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no hop-bound violation with MaxHops=1: %v", n.Checker().Err())
	}
}

// TestHopProgressKeyedByAppAndID: traffic sources number their packets
// independently, so two packets in flight may share an ID as long as their
// applications differ; a second packet under the same (application, ID) is
// indistinguishable from one whose hop count fell and is still reported.
func TestHopProgressKeyedByAppAndID(t *testing.T) {
	run := func(lateApp int) error {
		n := build(t, &invariant.Config{Mode: invariant.ModeCollect}, nil)
		defer n.Close()
		n.NI(0).Inject(&msg.Packet{ID: 1, App: 0, Src: 0, Dst: 15, Size: 12, Class: msg.ClassRequest}, 0)
		for c := int64(0); c < 200 && !n.Drained(); c++ {
			if c == 15 { // the first packet is several hops in
				n.NI(12).Inject(&msg.Packet{ID: 1, App: lateApp, Src: 12, Dst: 3, Size: 12, Class: msg.ClassRequest}, c)
			}
			n.Tick(c)
		}
		if !n.Drained() {
			t.Fatal("network did not drain")
		}
		return n.Checker().Err()
	}
	if err := run(1); err != nil {
		t.Errorf("one ID under two applications is not a hop regression: %v", err)
	}
	if err := run(0); err == nil || !strings.Contains(err.Error(), "hop count went backwards") {
		t.Errorf("a hop count that falls under one (application, ID) went unreported: %v", err)
	}
}

// TestViolationError checks the rendered forms used by logs and panics.
func TestViolationError(t *testing.T) {
	v := invariant.Violation{Cycle: 42, Check: "credit-accounting", Msg: "link r0>r1 vc 2: sum 7 != depth 8"}
	want := "invariant: cycle 42: credit-accounting: link r0>r1 vc 2: sum 7 != depth 8"
	if got := v.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
