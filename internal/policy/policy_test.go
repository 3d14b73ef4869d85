package policy

import (
	"testing"

	"rair/internal/msg"
)

func TestFromPacket(t *testing.T) {
	p := &msg.Packet{App: 2, Global: true, CreatedAt: 3500}
	r := FromPacket(p, 2)
	if !r.Native || r.App != 2 || r.CreatedAt != 3500 {
		t.Fatalf("requestor %+v", r)
	}
	if FromPacket(p, 1).Native {
		t.Fatal("app mismatch must be foreign")
	}
	if FromPacket(p, -1).Native {
		t.Fatal("unassigned router has no native traffic")
	}
}

func TestRoundRobinFlat(t *testing.T) {
	p := NewRoundRobin(0, 0)
	r1 := Requestor{Native: true}
	r2 := Requestor{Native: false, App: 3}
	for _, cls := range []VCClass{VCEscape, VCGlobal, VCRegional} {
		if p.VAOutPriority(r1, cls, 0) != p.VAOutPriority(r2, cls, 0) {
			t.Fatal("RO_RR must be flat")
		}
	}
	if p.SAPriority(r1, 0) != p.SAPriority(r2, 0) {
		t.Fatal("RO_RR must be flat at SA")
	}
	p.Update(3, 4) // must not panic or change anything
}

func TestRankPrefersLowIntensity(t *testing.T) {
	// App 0 rank 0 (least intensive), app 1 rank 1.
	f := NewRankFactory([]int{0, 1})
	p := f(0, 0)
	lo := Requestor{App: 0}
	hi := Requestor{App: 1}
	if p.SAPriority(lo, 10) <= p.SAPriority(hi, 10) {
		t.Fatal("lower-intensity app must outrank")
	}
	// Region-obliviousness: identical across VC classes.
	if p.VAOutPriority(lo, VCRegional, 10) != p.VAOutPriority(lo, VCGlobal, 10) {
		t.Fatal("RO_Rank must ignore region/VC class")
	}
}

func TestRankBatchDominates(t *testing.T) {
	f := NewRankFactory([]int{0, 1})
	p := f(0, 0)
	now := int64(5 * BatchInterval)
	oldBad := Requestor{App: 1, CreatedAt: 1 * BatchInterval}    // worst rank, old batch
	youngGood := Requestor{App: 0, CreatedAt: 4 * BatchInterval} // best rank, young batch
	if p.SAPriority(oldBad, now) <= p.SAPriority(youngGood, now) {
		t.Fatal("older batch must dominate rank")
	}
}

func TestRankUnrankedAppIsWorst(t *testing.T) {
	f := NewRankFactory([]int{0, 1})
	p := f(0, 0)
	adv := Requestor{App: 9} // adversarial, unranked
	worst := Requestor{App: 1}
	if p.SAPriority(adv, 10) >= p.SAPriority(worst, 10) {
		t.Fatal("unranked app must be below every ranked app")
	}
}

func TestRankFutureBatchClamped(t *testing.T) {
	p := NewRankFactory([]int{0})(0, 0)
	r := Requestor{App: 0, CreatedAt: 100 * BatchInterval}
	if p.SAPriority(r, 0) < 0 {
		t.Fatal("future creation must not produce negative priority")
	}
}

func TestRankAgeSaturates(t *testing.T) {
	p := NewRankFactory([]int{0})(0, 0)
	ancient := Requestor{App: 0, CreatedAt: 0}
	now := int64(BatchInterval) * (maxBatchAge + 50)
	v1 := p.SAPriority(ancient, now)
	v2 := p.SAPriority(ancient, now+BatchInterval)
	if v1 != v2 {
		t.Fatal("batch age must saturate")
	}
}

func TestRankCustomInterval(t *testing.T) {
	p := NewRankFactoryInterval([]int{0, 1}, 100)(0, 0)
	young := Requestor{App: 1, CreatedAt: 150}
	old := Requestor{App: 1, CreatedAt: 40}
	if p.SAPriority(old, 180) <= p.SAPriority(young, 180) {
		t.Fatal("custom interval batching inactive")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for interval 0")
		}
	}()
	NewRankFactoryInterval(nil, 0)
}

func TestVCClassStrings(t *testing.T) {
	if VCEscape.String() != "Escape" || VCGlobal.String() != "Global" || VCRegional.String() != "Regional" {
		t.Fatal("class strings")
	}
	if VCClass(9).String() != "VCClass(?)" {
		t.Fatal("unknown class string")
	}
}
