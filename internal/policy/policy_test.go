package policy

import (
	"testing"

	"rair/internal/msg"
)

// pkt is a requesting packet of app created at cycle created.
func pkt(app int, created int64) *msg.Packet { return &msg.Packet{App: app, CreatedAt: created} }

// rank is Rank over a fixed ranking at the default batch interval.
func rank(ranks ...int) Policy {
	return New(Spec{Priority: Rank, Ranks: FixedRanks(ranks), Batch: BatchInterval}, 0)
}

func TestNativeBit(t *testing.T) {
	p := New(Spec{Priority: NativeH}, 2)
	if p.SAPriority(pkt(2, 0), 0) != 1 || p.SAPriority(pkt(1, 0), 0) != 0 {
		t.Fatal("a packet is native exactly when its app is the router's")
	}
	if u := New(Spec{Priority: NativeH}, -1); u.SAPriority(pkt(0, 0), 0) != 0 {
		t.Fatal("an unassigned router has no native traffic")
	}
}

func TestRoundRobinFlat(t *testing.T) {
	p := New(Spec{}, 0)
	native, foreign := pkt(0, 0), pkt(3, 10)
	for _, cls := range []VCClass{VCEscape, VCGlobal, VCRegional} {
		if p.VAPriority(native, cls, 20) != 0 || p.VAPriority(foreign, cls, 20) != 0 {
			t.Fatal("RO_RR must be flat")
		}
	}
	if p.SAPriority(native, 20) != 0 || p.SAPriority(foreign, 20) != 0 {
		t.Fatal("RO_RR must be flat at SA")
	}
	if p.Update(3, 40) {
		t.Fatal("RO_RR keeps no state to flip")
	}
}

func TestRankPrefersLowIntensity(t *testing.T) {
	// App 0 rank 0 (least intensive), app 1 rank 1.
	p := rank(0, 1)
	lo, hi := pkt(0, 0), pkt(1, 0)
	if p.SAPriority(lo, 10) <= p.SAPriority(hi, 10) {
		t.Fatal("lower-intensity app must outrank")
	}
	// Region-obliviousness: identical across VC classes and at SA.
	if p.VAPriority(lo, VCRegional, 10) != p.VAPriority(lo, VCGlobal, 10) ||
		p.VAPriority(lo, VCGlobal, 10) != p.SAPriority(lo, 10) {
		t.Fatal("RO_Rank must ignore region/VC class")
	}
}

func TestRankBatchDominates(t *testing.T) {
	p := rank(0, 1)
	now := int64(5 * BatchInterval)
	oldBad := pkt(1, 1*BatchInterval)    // worst rank, old batch
	youngGood := pkt(0, 4*BatchInterval) // best rank, young batch
	if p.SAPriority(oldBad, now) <= p.SAPriority(youngGood, now) {
		t.Fatal("older batch must dominate rank")
	}
}

func TestRankUnrankedAppIsWorst(t *testing.T) {
	p := rank(0, 1)
	adv := pkt(9, 0) // adversarial, unranked
	worst := pkt(1, 0)
	if p.SAPriority(adv, 10) >= p.SAPriority(worst, 10) {
		t.Fatal("unranked app must be below every ranked app")
	}
}

func TestRankFutureBatchClamped(t *testing.T) {
	p := rank(0)
	if p.SAPriority(pkt(0, 100*BatchInterval), 0) < 0 {
		t.Fatal("future creation must not produce negative priority")
	}
}

func TestRankAgeSaturates(t *testing.T) {
	p := rank(0)
	ancient := pkt(0, 0)
	now := int64(BatchInterval) * (maxBatchAge + 50)
	if p.SAPriority(ancient, now) != p.SAPriority(ancient, now+BatchInterval) {
		t.Fatal("batch age must saturate")
	}
}

func TestRankCustomInterval(t *testing.T) {
	p := New(Spec{Priority: Rank, Ranks: FixedRanks([]int{0, 1}), Batch: 100}, 0)
	young, old := pkt(1, 150), pkt(1, 40)
	if p.SAPriority(old, 180) <= p.SAPriority(young, 180) {
		t.Fatal("custom interval batching inactive")
	}
}

func TestAgeOldestWins(t *testing.T) {
	p := New(Spec{Priority: Age}, 0)
	old, young := pkt(1, 10), pkt(1, 500)
	if p.SAPriority(old, 1000) <= p.SAPriority(young, 1000) {
		t.Fatal("older packet must outrank")
	}
	if p.VAPriority(old, VCGlobal, 1000) <= p.VAPriority(young, VCGlobal, 1000) {
		t.Fatal("older packet must outrank at VA")
	}
}

func TestAgeRegionOblivious(t *testing.T) {
	p := New(Spec{Priority: Age}, 0)
	native, foreign := pkt(0, 100), pkt(1, 100)
	for _, cls := range []VCClass{VCEscape, VCGlobal, VCRegional} {
		if p.VAPriority(native, cls, 200) != p.VAPriority(foreign, cls, 200) {
			t.Fatal("age must ignore region")
		}
	}
}

func TestAgeClamps(t *testing.T) {
	p := New(Spec{Priority: Age}, 0)
	if p.SAPriority(pkt(0, 1000), 0) != 0 {
		t.Fatal("future creation must clamp to zero")
	}
	if p.SAPriority(pkt(0, 0), 1<<40) != maxAge {
		t.Fatal("age must saturate")
	}
	if p.Update(1, 2) {
		t.Fatal("age keeps no state to flip")
	}
}

func TestRankStateRanking(t *testing.T) {
	s := NewRankState(3, 100)
	// App 2 injects the most, app 0 the least.
	for i := 0; i < 5; i++ {
		s.Observe(1)
	}
	for i := 0; i < 20; i++ {
		s.Observe(2)
	}
	s.Observe(0)
	s.Advance(100)
	if s.Rank(0) != 0 || s.Rank(1) != 1 || s.Rank(2) != 2 {
		t.Fatalf("ranks %d %d %d", s.Rank(0), s.Rank(1), s.Rank(2))
	}
	// Counts reset each interval: a quiet next interval re-ranks by the
	// new window only.
	for i := 0; i < 9; i++ {
		s.Observe(0)
	}
	s.Advance(150) // not due yet
	if s.Rank(0) != 0 {
		t.Fatal("re-ranked before the interval elapsed")
	}
	s.Advance(200)
	if s.Rank(0) != 2 {
		t.Fatalf("app 0 rank %d after becoming the most intensive", s.Rank(0))
	}
}

func TestRankStateOutOfRange(t *testing.T) {
	s := NewRankState(2, 10)
	s.Observe(-1)
	s.Observe(9) // ignored
	if s.Rank(9) != 2 || s.Rank(-1) != 2 {
		t.Fatal("out-of-range apps must get the worst rank")
	}
	if f := FixedRanks([]int{1, 0, 2}); f.Rank(0) != 1 || f.Rank(3) != 3 {
		t.Fatal("a fixed ranking reads its table, the worst rank past it")
	}
}

// TestDynRankPolicy is Rank over a measured ranking: the same arbitration
// as the oracle, with ranks that follow the observed injections.
func TestDynRankPolicy(t *testing.T) {
	s := NewRankState(2, 100)
	p := New(Spec{Priority: Rank, Ranks: s, Batch: BatchInterval}, 0)
	for i := 0; i < 10; i++ {
		s.Observe(0)
	}
	s.Advance(100)
	light, heavy := pkt(1, 100), pkt(0, 100)
	if p.SAPriority(light, 120) <= p.SAPriority(heavy, 120) {
		t.Fatal("measured ranking must favor the lighter app")
	}
	if p.VAPriority(light, VCGlobal, 120) != p.VAPriority(light, VCRegional, 120) {
		t.Fatal("measured RO_Rank must be VC-class-oblivious")
	}
	// Batching still dominates rank.
	oldHeavy, freshLight := pkt(0, 0), pkt(1, 9*BatchInterval)
	if p.SAPriority(oldHeavy, 10*BatchInterval) <= p.SAPriority(freshLight, 10*BatchInterval) {
		t.Fatal("older batch must dominate measured rank")
	}
}

func TestVCClassStrings(t *testing.T) {
	if VCEscape.String() != "Escape" || VCGlobal.String() != "Global" || VCRegional.String() != "Regional" {
		t.Fatal("class strings")
	}
	if VCClass(9).String() != "VCClass(?)" {
		t.Fatal("unknown class string")
	}
}
