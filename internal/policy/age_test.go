package policy

import "testing"

func TestAgeOldestWins(t *testing.T) {
	p := NewAge(0, 0)
	old := Requestor{CreatedAt: 10}
	young := Requestor{CreatedAt: 500}
	if p.SAPriority(old, 1000) <= p.SAPriority(young, 1000) {
		t.Fatal("older packet must outrank")
	}
	if p.VAOutPriority(old, VCGlobal, 1000) <= p.VAOutPriority(young, VCGlobal, 1000) {
		t.Fatal("older packet must outrank at VA")
	}
}

func TestAgeRegionOblivious(t *testing.T) {
	p := NewAge(0, 0)
	native := Requestor{Native: true, CreatedAt: 100}
	foreign := Requestor{Native: false, CreatedAt: 100}
	for _, cls := range []VCClass{VCEscape, VCGlobal, VCRegional} {
		if p.VAOutPriority(native, cls, 200) != p.VAOutPriority(foreign, cls, 200) {
			t.Fatal("age must ignore region")
		}
	}
}

func TestAgeClamps(t *testing.T) {
	p := NewAge(0, 0)
	future := Requestor{CreatedAt: 1000}
	if p.SAPriority(future, 0) != 0 {
		t.Fatal("future creation must clamp to zero")
	}
	ancient := Requestor{CreatedAt: 0}
	if p.SAPriority(ancient, 1<<40) != maxAge {
		t.Fatal("age must saturate")
	}
	p.Update(1, 2) // no-op, must not panic
}
