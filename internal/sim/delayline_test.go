package sim

import (
	"testing"
	"testing/quick"
)

func TestDelayLineLatency(t *testing.T) {
	for _, lat := range []int{1, 2, 3, 7} {
		var d DelayLine[int]
		d.Init(lat)
		d.Push(42)
		for c := 0; c < lat-1; c++ {
			if _, ok := d.Shift(); ok {
				t.Fatalf("lat=%d: value emerged after %d shifts", lat, c+1)
			}
		}
		if v, ok := d.Shift(); !ok || v != 42 {
			t.Fatalf("lat=%d: value did not emerge after %d shifts", lat, lat)
		}
	}
}

func TestDelayLineOnePerCycle(t *testing.T) {
	var d DelayLine[int]
	d.Init(3)
	if !d.CanPush() {
		t.Fatal("fresh line refuses push")
	}
	d.Push(1)
	if d.CanPush() {
		t.Fatal("second push in the same cycle allowed")
	}
	d.Shift()
	if !d.CanPush() {
		t.Fatal("push refused after Shift")
	}
}

func TestDelayLinePipelining(t *testing.T) {
	// A latency-2 line should sustain one value per cycle.
	var d DelayLine[int]
	d.Init(2)
	var got []int
	for c := 0; c < 10; c++ {
		if v, ok := d.Shift(); ok {
			got = append(got, v)
		}
		if d.CanPush() {
			d.Push(c)
		} else {
			t.Fatalf("cycle %d: pipeline stalled", c)
		}
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery: got[%d]=%d", i, v)
		}
	}
	if len(got) != 8 { // values 0..7 have emerged by cycle 9
		t.Fatalf("delivered %d values, want 8", len(got))
	}
}

func TestDelayLineBusyDrain(t *testing.T) {
	var d DelayLine[int]
	d.Init(4)
	if d.Busy() {
		t.Fatal("fresh line busy")
	}
	d.Push(1)
	d.Shift()
	d.Push(2)
	if !d.Busy() {
		t.Fatal("line with in-flight values not busy")
	}
	for range 4 {
		d.Shift()
	}
	if d.Busy() {
		t.Fatal("busy after every value emerged")
	}
}

func TestDelayLineZeroLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(DelayLine[int]).Init(0)
}

// Property: values always emerge exactly latency cycles after the push, in
// push order.
func TestDelayLineExactLatency(t *testing.T) {
	if err := quick.Check(func(lat8 uint8, pattern []bool) bool {
		lat := int(lat8%5) + 1
		var d DelayLine[int]
		d.Init(lat)
		pushCycle := map[int]int{}
		next := 0
		for c := 0; c < len(pattern)+lat+1; c++ {
			if v, ok := d.Shift(); ok {
				if c != pushCycle[v]+lat {
					return false
				}
			}
			if c < len(pattern) && pattern[c] && d.CanPush() {
				pushCycle[next] = c
				d.Push(next)
				next++
			}
		}
		return !d.Busy()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
