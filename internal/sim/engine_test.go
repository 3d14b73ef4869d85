package sim

import "testing"

type recorder struct {
	id    int
	trace *[]int
}

func (r *recorder) Tick(int64) { *r.trace = append(*r.trace, r.id) }

func TestEngineTickOrder(t *testing.T) {
	e := NewEngine()
	var trace []int
	for i := 0; i < 3; i++ {
		e.Register(&recorder{id: i, trace: &trace})
	}
	e.Run(2)
	want := []int{0, 1, 2, 0, 1, 2}
	if len(trace) != len(want) {
		t.Fatalf("trace len %d, want %d", len(trace), len(want))
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %d, want %d", i, trace[i], want[i])
		}
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %d, want 2", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Register(TickFunc(func(int64) { n++ }))
	if !e.RunUntil(func() bool { return n >= 5 }, 100) {
		t.Fatal("RunUntil failed to satisfy condition")
	}
	if n != 5 {
		t.Fatalf("ran %d cycles, want 5", n)
	}
	if e.RunUntil(func() bool { return false }, 10) {
		t.Fatal("RunUntil reported success for impossible condition")
	}
}
