package faults_test

import (
	"strings"
	"testing"

	"rair/internal/faults"
	"rair/internal/msg"
	"rair/internal/router"
	"rair/internal/topology"
)

// mkInjector builds an injector for n nodes, failing the test on error.
func mkInjector(t *testing.T, cfg faults.Config, nodes int) *faults.Injector {
	t.Helper()
	in, err := faults.NewInjector(cfg, nodes)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return in
}

func TestConfigValidate(t *testing.T) {
	bad := []faults.Config{
		{DropProb: -0.1},
		{CorruptProb: 1.5},
		{CreditLeakProb: 2},
		{StallProb: -1},
		{StallProb: 7},
		{MaxRetries: -1},
		{DropTimeout: -5},
		{NackLatency: -2},
		{ReconcileEvery: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, c)
		}
	}
	good := faults.Config{DropProb: 0.5, CorruptProb: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid config: %v", err)
	}
}

func TestEnabled(t *testing.T) {
	// Seed and the recovery knobs inject nothing by themselves.
	for _, c := range []faults.Config{{}, {Seed: 9, MaxRetries: 4, DropTimeout: 8, NackLatency: 1, ReconcileEvery: 64}} {
		if c.Enabled() {
			t.Errorf("config %+v reports Enabled", c)
		}
	}
	cases := []faults.Config{
		{DropProb: 0.1},
		{CorruptProb: 0.1},
		{CreditLeakProb: 0.1},
		{StallProb: 0.1},
		{StallLen: 6},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d: config %+v reports disabled", i, c)
		}
	}
}

// TestKeys pins the strings a network registers its links under (the wiring
// table's one key formatter): they name links in Report and in the checker's
// diagnostics.
func TestKeys(t *testing.T) {
	r3 := router.LinkEnd{Node: 3, Dir: topology.East}
	r4 := router.LinkEnd{Node: 4, Dir: topology.West}
	port := router.LinkEnd{Node: 3, Dir: topology.Local}
	ni := router.LinkEnd{Node: 3, NI: true}
	for _, tc := range []struct {
		rec  router.LinkRecord
		want string
	}{
		{router.LinkRecord{Src: r3, Dst: r4}, "r3>r4"},
		{router.LinkRecord{Src: ni, Dst: port}, "ni3>r3"},
		{router.LinkRecord{Src: port, Dst: ni}, "r3>ni3"},
	} {
		if got := tc.rec.Key(); got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
	}
}

// driveLink pushes every flit of pkts through a faulty link in order, one
// flit per cycle when the wire accepts it, and collects arrivals until the
// link drains. It returns the delivered flits in arrival order.
func driveLink(t *testing.T, l *router.Link, flits []msg.Flit, maxCycles int64) []msg.Flit {
	t.Helper()
	var out []msg.Flit
	next := 0
	for now := int64(0); now < maxCycles; now++ {
		if f, ok := l.ShiftFlits(now); ok {
			out = append(out, f)
		}
		if next < len(flits) && l.CanSendFlit() {
			l.SendFlit(flits[next])
			next++
		}
		if next == len(flits) && !l.FlitsBusy() {
			return out
		}
	}
	t.Fatalf("link did not drain in %d cycles (%d/%d sent, %d delivered)",
		maxCycles, next, len(flits), len(out))
	return nil
}

// linkCounters is the report's counter block for the link registered as
// key (zero when the link saw no event).
func linkCounters(in *faults.Injector, key string) faults.Counters {
	for _, l := range in.Report().Links {
		if l.Key == key {
			return l.Counters
		}
	}
	return faults.Counters{}
}

// makeFlits builds n single-flit packets' worth of flits with distinct ids.
func makeFlits(n int) []msg.Flit {
	fs := make([]msg.Flit, 0, n)
	for i := 0; i < n; i++ {
		p := &msg.Packet{ID: uint64(i + 1), Size: 1}
		fs = append(fs, msg.Flit{Pkt: p, Type: msg.HeadTail, Seq: 0, VC: i % 4})
	}
	return fs
}

// TestLinkDeliveryUnderFaults is the core go-back-N property: every flit is
// delivered exactly once and in order despite drops and corruptions.
func TestLinkDeliveryUnderFaults(t *testing.T) {
	in := mkInjector(t, faults.Config{
		Seed:     42,
		DropProb: 0.15, CorruptProb: 0.1,
	}, 0)
	ls := in.RegisterLink("r0>r1", nil, false)
	l := router.NewLink(2)
	l.SetFaults(ls)

	flits := makeFlits(400)
	got := driveLink(t, l, flits, 100000)

	if len(got) != len(flits) {
		t.Fatalf("delivered %d flits, want %d", len(got), len(flits))
	}
	for i, f := range got {
		if f.Pkt.ID != flits[i].Pkt.ID || f.Seq != flits[i].Seq {
			t.Fatalf("arrival %d out of order: got pkt %d seq %d, want pkt %d seq %d",
				i, f.Pkt.ID, f.Seq, flits[i].Pkt.ID, flits[i].Seq)
		}
	}
	c := linkCounters(in, "r0>r1")
	if c.DroppedFlits == 0 || c.CorruptedFlits == 0 {
		t.Errorf("expected both fault kinds at these rates: %+v", c)
	}
	// Every failed flit re-enters the wire, and so does every flit held
	// behind it, so retransmits at least cover the failures.
	if c.Retransmits < c.DroppedFlits+c.CorruptedFlits {
		t.Errorf("retransmits %d < faults %d", c.Retransmits, c.DroppedFlits+c.CorruptedFlits)
	}
	if c.LostFlits != 0 {
		t.Errorf("lost %d flits with a default retry budget", c.LostFlits)
	}
	if ls.Pending() {
		t.Error("retransmission queue not empty after drain")
	}
}

// TestMultiFlitOrderUnderFaults soaks multi-flit packets over longer wires
// across many seeds and send spacings, asserting strict per-wire delivery
// order. Spaced sends (one flit every few cycles, as a router's SA grants
// them) lock down the overtake case: a failed flit's resend re-enters the
// wire behind a fresh flit already in flight, and that fresh flit must be
// held even though the retransmission queue just drained.
func TestMultiFlitOrderUnderFaults(t *testing.T) {
	for _, latency := range []int{1, 2, 3} {
		for _, spacing := range []int64{1, 2, 3, 4} {
			for seed := uint64(1); seed <= 10; seed++ {
				in := mkInjector(t, faults.Config{
					Seed:     seed,
					DropProb: 0.08, CorruptProb: 0.08,
				}, 0)
				ls := in.RegisterLink("r0>r1", nil, false)
				l := router.NewLink(latency)
				l.SetFaults(ls)

				var flits []msg.Flit
				for i := 0; i < 60; i++ {
					p := &msg.Packet{ID: uint64(i + 1), Size: 4}
					for s := 0; s < p.Size; s++ {
						flits = append(flits, msg.FlitAt(p, s))
					}
				}
				var got []msg.Flit
				next := 0
				for now := int64(0); now < 200000; now++ {
					if f, ok := l.ShiftFlits(now); ok {
						got = append(got, f)
					}
					if next < len(flits) && now%spacing == 0 && l.CanSendFlit() {
						l.SendFlit(flits[next])
						next++
					}
					if next == len(flits) && !l.FlitsBusy() {
						break
					}
				}
				if len(got) != len(flits) {
					t.Fatalf("latency %d spacing %d seed %d: delivered %d flits, want %d",
						latency, spacing, seed, len(got), len(flits))
				}
				for i, f := range got {
					if f.Pkt.ID != flits[i].Pkt.ID || f.Seq != flits[i].Seq {
						t.Fatalf("latency %d spacing %d seed %d: arrival %d out of order: got pkt %d seq %d, want pkt %d seq %d",
							latency, spacing, seed, i, f.Pkt.ID, f.Seq, flits[i].Pkt.ID, flits[i].Seq)
					}
				}
			}
		}
	}
}

// TestLinkDeterminism: the same seed reproduces the same arrival schedule;
// a different seed produces a different one.
func TestLinkDeterminism(t *testing.T) {
	trace := func(seed uint64) []int64 {
		in := mkInjector(t, faults.Config{
			Seed:     seed,
			DropProb: 0.2, CorruptProb: 0.1,
		}, 0)
		ls := in.RegisterLink("r0>r1", nil, false)
		l := router.NewLink(1)
		l.SetFaults(ls)
		flits := makeFlits(100)
		var times []int64
		next := 0
		for now := int64(0); now < 100000; now++ {
			if _, ok := l.ShiftFlits(now); ok {
				times = append(times, now)
			}
			if next < len(flits) && l.CanSendFlit() {
				l.SendFlit(flits[next])
				next++
			}
			if next == len(flits) && !l.FlitsBusy() {
				break
			}
		}
		return times
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d at cycle %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical arrival schedules")
	}
}

// TestRetryExhaustion: with a certain-failure link and a tiny retry budget
// the link gives up on the flit and forwards it marked damaged — it is
// counted lost, nothing stays queued, and it passes a second bad link without
// being counted again. On an ejection link its packet is flagged and counted.
func TestRetryExhaustion(t *testing.T) {
	in := mkInjector(t, faults.Config{
		Seed:        1,
		DropProb:    1,
		MaxRetries:  2,
		DropTimeout: 1,
	}, 0)
	p := &msg.Packet{ID: 99, Size: 1}
	f := msg.Flit{Pkt: p, Type: msg.HeadTail, VC: 2}
	for hop, key := range []string{"r0>r1", "r1>ni1"} {
		ls := in.RegisterLink(key, nil, hop == 1)
		l := router.NewLink(1)
		l.SetFaults(ls)
		l.SendFlit(f)
		delivered := 0
		for now := int64(0); now < 100 && l.FlitsBusy(); now++ {
			if got, ok := l.ShiftFlits(now); ok {
				delivered++
				f = got
			}
		}
		if delivered != 1 || f.Type != msg.HeadTail|msg.Damaged || f.VC != 2 || ls.Pending() {
			t.Fatalf("%s: delivered %d times, flit %+v, pending %v; want one damaged delivery and an empty queue",
				key, delivered, f, ls.Pending())
		}
		// Attempts 0..MaxRetries all roll a drop before the link gives up.
		want := faults.Counters{DroppedFlits: 3, Retransmits: 2, LostFlits: 1 - int64(hop), LostPackets: int64(hop)}
		if c := linkCounters(in, key); c != want {
			t.Errorf("%s: counters %+v, want %+v", key, c, want)
		}
		if p.Lost != (hop == 1) {
			t.Errorf("%s: packet Lost = %v", key, p.Lost)
		}
	}
	if tot := in.Report().Totals; tot.LostFlits != 1 || tot.LostPackets != 1 {
		t.Errorf("report totals %+v, want one lost flit in one lost packet", tot)
	}
}

// TestCreditLeakAndReconcile: a certain-leak link loses every credit; the
// restore callback gets them all back at reconciliation.
func TestCreditLeakAndReconcile(t *testing.T) {
	restored := map[int]int{}
	in := mkInjector(t, faults.Config{
		Seed:           3,
		CreditLeakProb: 1,
		ReconcileEvery: 8,
	}, 0)
	ls := in.RegisterLink("r0>r1", func(vc int) { restored[vc]++ }, false)
	l := router.NewLink(1)
	l.SetFaults(ls)

	sent := map[int]int{}
	for now := int64(0); now < 6; now++ {
		if _, ok := l.ShiftCredits(now); ok {
			t.Fatalf("certain-leak link delivered a credit at cycle %d", now)
		}
		vc := int(now) % 3
		l.SendCredit(vc)
		sent[vc]++
	}
	l.ShiftCredits(6) // drain the last push
	c := linkCounters(in, "r0>r1")
	if c.CreditLeaks != 6 {
		t.Fatalf("CreditLeaks = %d, want 6", c.CreditLeaks)
	}
	for vc, n := range sent {
		if ls.LeakedFor(vc) != n {
			t.Errorf("LeakedFor(%d) = %d, want %d", vc, ls.LeakedFor(vc), n)
		}
	}

	if !in.ReconcileDue(7) { // (7+1) % 8 == 0
		t.Error("ReconcileDue(7) = false with period 8")
	}
	if in.ReconcileDue(8) {
		t.Error("ReconcileDue(8) = true with period 8")
	}
	if n := in.ReconcileAll(); n != 6 {
		t.Fatalf("ReconcileAll restored %d credits, want 6", n)
	}
	for vc, n := range sent {
		if restored[vc] != n {
			t.Errorf("restored[%d] = %d, want %d", vc, restored[vc], n)
		}
		if ls.LeakedFor(vc) != 0 {
			t.Errorf("LeakedFor(%d) = %d after reconcile", vc, ls.LeakedFor(vc))
		}
	}
	if c := linkCounters(in, "r0>r1"); c.ReconciledCredits != 6 {
		t.Errorf("ReconciledCredits = %d, want 6", c.ReconciledCredits)
	}
	if in.ReconcileAll() != 0 {
		t.Error("second ReconcileAll restored credits again")
	}
}

// TestEjectionLinkCreditsImmune: noCredits links never leak (their credit
// wire is unused by construction, so the filter must pass everything).
func TestEjectionLinkCreditsImmune(t *testing.T) {
	in := mkInjector(t, faults.Config{Seed: 3, CreditLeakProb: 1}, 0)
	ls := in.RegisterLink("r0>ni0", nil, true)
	for now := int64(0); now < 50; now++ {
		if !ls.CreditArrive(0, now) {
			t.Fatal("noCredits link leaked a credit")
		}
	}
}

// TestStallWindows: stall decisions are deterministic per (node, cycle) and
// windows last StallLen cycles.
func TestStallWindows(t *testing.T) {
	cfg := faults.Config{
		Seed:      11,
		StallProb: 1, StallLen: 4,
	}
	in := mkInjector(t, cfg, 2)
	// With StallProb 1 a router stalls every cycle it is asked.
	for now := int64(0); now < 12; now++ {
		if !in.RouterStalled(0, now) {
			t.Fatalf("router 0 not stalled at cycle %d with StallProb 1", now)
		}
	}

	// Moderate probability: the pattern reproduces exactly across injectors.
	pattern := func() []bool {
		in := mkInjector(t, faults.Config{Seed: 5, StallProb: 0.05, StallLen: 3}, 1)
		var out []bool
		for now := int64(0); now < 2000; now++ {
			out = append(out, in.RouterStalled(0, now))
		}
		return out
	}
	a, b := pattern(), pattern()
	stalls := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stall pattern diverged at cycle %d", i)
		}
		if a[i] {
			stalls++
		}
	}
	if stalls == 0 {
		t.Error("no stalls in 2000 cycles at StallProb 0.05")
	}
}

// TestReport: aggregation covers only links with events, sorted by key, and
// counts stalled routers.
func TestReport(t *testing.T) {
	in := mkInjector(t, faults.Config{
		Seed:       1,
		DropProb:   1,
		MaxRetries: 1, DropTimeout: 1,
		StallProb: 1, StallLen: 2,
	}, 3)
	quiet := in.RegisterLink("r0>r1", nil, false)
	noisy := in.RegisterLink("r2>r1", nil, false)
	_ = quiet

	p := &msg.Packet{ID: 7, Size: 1}
	noisy.Arrive(msg.Flit{Pkt: p, Type: msg.HeadTail}, 0)
	in.RouterStalled(1, 0)
	in.RouterStalled(1, 1)

	r := in.Report()
	if len(r.Links) != 1 || r.Links[0].Key != "r2>r1" {
		t.Fatalf("report links = %+v, want only r2>r1", r.Links)
	}
	if r.Totals.DroppedFlits != 1 {
		t.Errorf("Totals.DroppedFlits = %d, want 1", r.Totals.DroppedFlits)
	}
	if r.StallCycles != 2 || r.StalledRouters != 1 {
		t.Errorf("stalls = %d cycles on %d routers, want 2 on 1", r.StallCycles, r.StalledRouters)
	}
	if s := r.String(); !strings.Contains(s, "1 dropped") || !strings.Contains(s, "2 stall cycles") {
		t.Errorf("Report.String() = %q", s)
	}
}

// TestPendingForVC tracks queued retransmissions per downstream VC.
func TestPendingForVC(t *testing.T) {
	in := mkInjector(t, faults.Config{
		Seed: 1, DropProb: 1,
		MaxRetries: 100, DropTimeout: 50,
	}, 0)
	ls := in.RegisterLink("r0>r1", nil, false)
	p := &msg.Packet{ID: 1, Size: 2}
	ls.Arrive(msg.Flit{Pkt: p, Type: msg.Head, Seq: 0, VC: 1}, 0)
	ls.Arrive(msg.Flit{Pkt: p, Type: msg.Tail, Seq: 1, VC: 1}, 1)
	if got := ls.PendingForVC(1); got != 2 {
		t.Errorf("PendingForVC(1) = %d, want 2", got)
	}
	if got := ls.PendingForVC(0); got != 0 {
		t.Errorf("PendingForVC(0) = %d, want 0", got)
	}
}
