package invariant_test

import (
	"fmt"
	"strings"
	"testing"

	"rair/internal/faults"
	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/network"
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
		Check:   chk,
		Faults:  fl,
	})
}

// violationLines splits a checker's Err into its lines, one per recorded
// violation (at most the first eight), dropping the count header and the
// "... and N more" trailer.
func violationLines(err error) []string {
	if err == nil {
		return nil
	}
	var out []string
	for _, l := range strings.Split(err.Error(), "\n")[1:] {
		if l = strings.TrimSpace(l); strings.HasPrefix(l, "invariant: ") {
			out = append(out, l)
		}
	}
	return out
}

func inject(n *network.Network, id uint64, src, dst, size int, now int64) {
	n.Inject(&msg.Packet{ID: id, Src: src, Dst: dst, Size: size, Class: msg.ClassRequest}, now)
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
	err := n.Checker().Err()
	vs := violationLines(err)
	if len(vs) != 1 || !strings.HasPrefix(err.Error(), "1 invariant violation(s):") {
		t.Fatalf("want exactly 1 watchdog violation: %v", err)
	}
	if !strings.Contains(vs[0], ": watchdog: ") {
		t.Fatalf("violation %q, want watchdog", vs[0])
	}
	if !strings.Contains(vs[0], "no flit ejected") || !strings.Contains(vs[0], "in flight") {
		t.Errorf("watchdog message lacks diagnosis: %q", vs[0])
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

// TestCheckingPeriod: with Every=8, a violation (here an artificially
// tight hop bound) is only observed at a checking barrier ((cycle+1)
// divisible by 8).
func TestCheckingPeriod(t *testing.T) {
	n := build(t, &invariant.Config{Every: 8, MaxHops: 1, Mode: invariant.ModeCollect}, nil)
	defer n.Close()
	inject(n, 1, 0, 15, 3, 0)
	for c := int64(0); c < 40; c++ {
		n.Tick(c)
	}
	vs := violationLines(n.Checker().Err())
	if len(vs) == 0 {
		t.Fatal("hop-bound violation not caught")
	}
	for _, v := range vs {
		var cycle int64
		if _, err := fmt.Sscanf(v, "invariant: cycle %d:", &cycle); err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		if (cycle+1)%8 != 0 {
			t.Fatalf("violation observed at cycle %d, off the Every=8 barrier", cycle)
		}
	}
}

// TestCollectLimit: ModeCollect stops recording at Limit.
func TestCollectLimit(t *testing.T) {
	n := build(t, &invariant.Config{MaxHops: 1, Mode: invariant.ModeCollect, Limit: 3}, nil)
	defer n.Close()
	inject(n, 1, 0, 15, 3, 0)
	for c := int64(0); c < 50; c++ {
		n.Tick(c)
	}
	if got := len(violationLines(n.Checker().Err())); got != 3 {
		t.Fatalf("recorded %d violations with Limit 3", got)
	}
	if err := n.Checker().Err(); err == nil || !strings.Contains(err.Error(), "3 invariant violation(s)") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestPanicMode: the default mode panics on the first violation.
func TestPanicMode(t *testing.T) {
	n := build(t, &invariant.Config{MaxHops: 1}, nil)
	defer n.Close()
	inject(n, 1, 0, 15, 3, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic from ModePanic on a hop-bound violation")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "hop-progress") {
			t.Fatalf("panic value %v, want a hop-progress violation", r)
		}
	}()
	for c := int64(0); c < 100; c++ {
		n.Tick(c)
	}
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
	for _, v := range violationLines(n.Checker().Err()) {
		if strings.Contains(v, ": hop-progress: ") && strings.Contains(v, "> bound 1") {
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
		n.Inject(&msg.Packet{ID: 1, App: 0, Src: 0, Dst: 15, Size: 12, Class: msg.ClassRequest}, 0)
		for c := int64(0); c < 200 && !n.Drained(); c++ {
			if c == 15 { // the first packet is several hops in
				n.Inject(&msg.Packet{ID: 1, App: lateApp, Src: 12, Dst: 3, Size: 12, Class: msg.ClassRequest}, c)
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
