package policy

import "testing"

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
}

func TestRankStateValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewRankState(0, 10) },
		func() { NewRankState(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDynRankPolicy(t *testing.T) {
	s := NewRankState(2, 100)
	p := NewDynRankFactory(s)(0, 0)
	for i := 0; i < 10; i++ {
		s.Observe(1)
	}
	s.Advance(100)
	light := Requestor{App: 0, CreatedAt: 100}
	heavy := Requestor{App: 1, CreatedAt: 100}
	if p.SAPriority(light, 120) <= p.SAPriority(heavy, 120) {
		t.Fatal("measured ranking must favor the lighter app")
	}
	if p.VAOutPriority(light, VCGlobal, 120) != p.VAOutPriority(light, VCRegional, 120) {
		t.Fatal("DynRank must be VC-class-oblivious")
	}
	// Batching still dominates rank.
	oldHeavy := Requestor{App: 1, CreatedAt: 0}
	freshLight := Requestor{App: 0, CreatedAt: 9 * BatchInterval}
	if p.SAPriority(oldHeavy, 10*BatchInterval) <= p.SAPriority(freshLight, 10*BatchInterval) {
		t.Fatal("older batch must dominate measured rank")
	}
	p.Update(0, 0) // no-op
}
