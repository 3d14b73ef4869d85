package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](2)
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.size != 100 {
		t.Fatalf("Len = %d, want 100", q.size)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestQueuePeekAt(t *testing.T) {
	q := NewQueue[string](1)
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty reported ok")
	}
	q.Push("a")
	q.Push("b")
	q.Push("c")
	q.Pop() // force wrap later
	q.Push("d")
	if v, _ := q.Peek(); v != "b" {
		t.Fatalf("Peek = %q", v)
	}
	q.Pop()
	q.Pop()
	if v, _ := q.Peek(); v != "d" {
		t.Fatalf("Peek after the wrap = %q", v)
	}
}

// Property: an interleaved push/pop sequence behaves like a reference slice
// implementation.
func TestQueueMatchesReference(t *testing.T) {
	if err := quick.Check(func(ops []int16) bool {
		q := NewQueue[int16](1)
		var ref []int16
		for _, op := range ops {
			if op%3 == 0 && len(ref) > 0 { // pop
				want := ref[0]
				ref = ref[1:]
				got, ok := q.Pop()
				if !ok || got != want {
					return false
				}
			} else { // push
				ref = append(ref, op)
				q.Push(op)
			}
			if q.size != len(ref) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
