package policy

import (
	"math/bits"
	"testing"
	"testing/quick"

	"rair/internal/msg"
)

// pkt is a requesting packet of app created at cycle created.
func pkt(app int, created int64) *msg.Packet { return &msg.Packet{App: app, CreatedAt: created} }

// rank is Rank over a fixed ranking at the default batch interval.
func rank(ranks ...int) Policy {
	return New(Spec{Priority: Rank, Ranks: ranks, Batch: BatchInterval}, 0)
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
	if q := rank(1, 0); q.SAPriority(lo, 10) >= q.SAPriority(hi, 10) {
		t.Fatal("the ranking is read from its table: swapped ranks swap the order")
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
	if p.SAPriority(pkt(-1, 0), 10) != p.SAPriority(adv, 10) {
		t.Fatal("a negative app must get the worst rank too")
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
	p := New(Spec{Priority: Rank, Ranks: []int{0, 1}, Batch: 100}, 0)
	young, old := pkt(1, 150), pkt(1, 40)
	if p.SAPriority(old, 180) <= p.SAPriority(young, 180) {
		t.Fatal("custom interval batching inactive")
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

// TestUpdateIdempotent: from either DPA state, at any Δ ≥ 0 and any
// occupancy counts, a second Update with the registers of the first never
// flips. It is what lets the router skip Update on a tick whose counts did
// not move.
func TestUpdateIdempotent(t *testing.T) {
	if err := quick.Check(func(nativeHigh bool, delta16, n16, f16 uint16) bool {
		p := New(Spec{Priority: DPA, Delta: float64(delta16) / 16384}, 0) // Δ in [0, 4)
		p.nativeHigh = nativeHigh
		p.setBase()
		n, f := int(n16%512), int(f16%512)
		p.Update(n, f)
		return !p.Update(n, f)
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestFavoredIsTopPriority: under every unordered rule, DPA state and VC
// class, SAFavored and VAFavored keep exactly the requestors of the highest
// SAPriority/VAPriority when that is not every requestor, and all of req
// when it is: a flat grant over the result is the prioritized grant.
func TestFavoredIsTopPriority(t *testing.T) {
	const app = 2
	native, foreign := pkt(app, 0), pkt(app+1, 0)
	top := func(req, nat uint64, prio func(*msg.Packet) int) uint64 {
		best, set := -1, uint64(0)
		for m := req; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			pk := foreign
			if nat>>uint(i)&1 == 1 {
				pk = native
			}
			switch pr := prio(pk); {
			case pr > best:
				best, set = pr, 1<<uint(i)
			case pr == best:
				set |= 1 << uint(i)
			}
		}
		return set
	}
	for _, spec := range []Spec{{}, {Priority: NativeH}, {Priority: ForeignH}, {Priority: DPA}, {Priority: DPA, MSP: VAOnly}} {
		for _, nativeHigh := range []bool{false, true} {
			p := New(spec, app)
			if spec.Priority == DPA {
				p.nativeHigh = nativeHigh
				p.setBase()
			}
			if err := quick.Check(func(req, nat uint64) bool {
				if got := p.SAFavored(req, nat); got != top(req, nat, func(k *msg.Packet) int { return p.SAPriority(k, 0) }) {
					return false
				}
				for _, cls := range []VCClass{VCEscape, VCGlobal, VCRegional} {
					var dst [1]uint64
					got := p.VAFavored(cls, []uint64{req}, []uint64{nat}, dst[:])
					if got[0] != top(req, nat, func(k *msg.Packet) int { return p.VAPriority(k, cls, 0) }) {
						return false
					}
				}
				return true
			}, nil); err != nil {
				t.Fatalf("%+v nativeHigh=%v: %v", spec, nativeHigh, err)
			}
		}
	}
}
