package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"rair/internal/msg"
)

func sample() *Trace {
	t := &Trace{}
	t.Add(Event{Cycle: 0, App: 0, Src: 1, Dst: 2, Class: msg.ClassRequest, Size: 1})
	t.Add(Event{Cycle: 0, App: 1, Src: 3, Dst: 4, Class: msg.ClassResponse, Size: 5})
	t.Add(Event{Cycle: 7, App: 0, Src: 2, Dst: 1, Class: msg.ClassRequest, Size: 1})
	t.Add(Event{Cycle: 100000, App: 2, Src: 63, Dst: 0, Class: msg.ClassResponse, Size: 5})
	return t
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, got.Events) {
		t.Fatalf("round trip mismatch:\n%v\n%v", tr.Events, got.Events)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

// Property: arbitrary ordered traces round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(deltas []uint8, seeds []uint16) bool {
		tr := &Trace{}
		cycle := int64(0)
		for i, d := range deltas {
			cycle += int64(d)
			var s uint16
			if i < len(seeds) {
				s = seeds[i]
			}
			tr.Add(Event{
				Cycle: cycle,
				App:   int32(s % 7),
				Src:   int32(s % 64),
				Dst:   int32((s >> 4) % 64),
				Class: msg.Class(s % 2),
				Size:  int32(s%5) + 1,
			})
		}
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(tr.Events) == 0 {
			return got.Len() == 0
		}
		return reflect.DeepEqual(tr.Events, got.Events)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRejectsUnsorted(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{Cycle: 5, Size: 1})
	tr.Add(Event{Cycle: 3, Size: 1})
	if err := tr.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("unsorted trace accepted")
	}
	tr.Sort()
	if err := tr.Write(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// encode builds a trace file by hand: the magic, then each value as a
// uvarint (version, count, then six fields per event).
func encode(vals ...uint64) []byte {
	b := append([]byte(nil), magic[:]...)
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated body.
	tr := sample()
	var buf bytes.Buffer
	tr.Write(&buf)
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// Each field must fit its int32 without wrapping: a src of 2^32+3 is
	// not node 3, and a negative written value is not read back as one.
	for j, name := range []string{"app", "src", "dst", "class", "size"} {
		for _, v := range []uint64{1<<32 + 3, math.MaxUint64} {
			fields := []uint64{0, 0, 0, 1, 0, 1}
			fields[j+1] = v
			if got, err := Read(bytes.NewReader(encode(append([]uint64{1, 1}, fields...)...))); err == nil {
				t.Fatalf("%s %d accepted as %+v", name, v, got.Events)
			}
		}
	}
	// Cycle deltas must not overflow the running cycle.
	over := encode(1, 2, math.MaxInt64, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1)
	if got, err := Read(bytes.NewReader(over)); err == nil {
		t.Fatalf("overflowing cycle accepted as %+v", got.Events)
	}
}

// TestReadDoesNotTrustCount: a dozen-byte header claiming 2^30 events must
// fail on the missing events without first allocating room for them.
func TestReadDoesNotTrustCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(bytes.NewReader(encode(1, 1<<30, 0, 0, 0, 1, 0, 1))); err == nil {
		t.Fatal("truncated trace accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 2^30-event header allocated %d bytes", grew)
	}
}

func TestValidate(t *testing.T) {
	tr := sample()
	if err := tr.Validate(64); err != nil {
		t.Fatal(err)
	}
	bad := &Trace{}
	bad.Add(Event{Cycle: 0, Src: 70, Dst: 0, Size: 1})
	if bad.Validate(64) == nil {
		t.Fatal("out-of-range node accepted")
	}
	bad2 := &Trace{}
	bad2.Add(Event{Cycle: 5, Size: 1})
	bad2.Add(Event{Cycle: 3, Size: 1})
	if bad2.Validate(64) == nil {
		t.Fatal("unsorted accepted")
	}
	bad3 := &Trace{}
	bad3.Add(Event{Cycle: 0, Size: 0})
	if bad3.Validate(64) == nil {
		t.Fatal("empty packet accepted")
	}
	bad4 := &Trace{}
	bad4.Add(Event{Cycle: 0, Size: 1, Class: 9})
	if bad4.Validate(64) == nil {
		t.Fatal("bad class accepted")
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Capture(1, &msg.Packet{App: 2, Src: 1, Dst: 9, Class: msg.ClassResponse, Size: 5}, 42)
	if r.T.Len() != 1 {
		t.Fatal("capture missed")
	}
	e := r.T.Events[0]
	if e.Cycle != 42 || e.App != 2 || e.Src != 1 || e.Dst != 9 || e.Size != 5 {
		t.Fatalf("event %+v", e)
	}
}

type injected struct {
	node int
	pkt  *msg.Packet
	now  int64
}

func TestPlayerTiming(t *testing.T) {
	tr := sample()
	var got []injected
	p := NewPlayer(tr, func(node int, pkt *msg.Packet, now int64) {
		got = append(got, injected{node, pkt, now})
	})
	for c := int64(0); c <= tr.Duration(); c++ {
		p.Tick(c)
	}
	if p.next != tr.Len() {
		t.Fatal("player not done")
	}
	if len(got) != tr.Len() {
		t.Fatalf("injected %d of %d", len(got), tr.Len())
	}
	for i, e := range tr.Events {
		g := got[i]
		if g.now != e.Cycle || g.node != int(e.Src) || g.pkt.Dst != int(e.Dst) || g.pkt.App != int(e.App) {
			t.Fatalf("event %d replayed wrong: %+v vs %+v", i, g, e)
		}
	}
	if p.Injected() != uint64(tr.Len()) {
		t.Fatal("Injected count wrong")
	}
}

func TestPlayerCatchesUpAfterGap(t *testing.T) {
	// If ticks skip cycles (should not happen, but be robust), all due
	// events fire.
	tr := sample()
	n := 0
	p := NewPlayer(tr, func(int, *msg.Packet, int64) { n++ })
	p.Tick(tr.Duration() + 1)
	if n != tr.Len() {
		t.Fatalf("caught up %d of %d", n, tr.Len())
	}
}

// TestValidateMalformed covers each malformed-field case and pins the
// error messages to include the offending event index, field and value.
func TestValidateMalformed(t *testing.T) {
	cases := []struct {
		name string
		ev   []Event
		want string
	}{
		{"negative cycle", []Event{{Cycle: -3, Size: 1}},
			"event 0: cycle is -3"},
		{"cycle regression", []Event{{Cycle: 7, Size: 1}, {Cycle: 2, Size: 1}},
			"event 1: cycle 2 regresses below event 0's cycle 7"},
		{"negative src", []Event{{Cycle: 0, Src: -1, Size: 1}},
			"event 0: src -1 outside mesh of 16 nodes"},
		{"src out of range", []Event{{Cycle: 0, Src: 16, Size: 1}},
			"event 0: src 16 outside mesh of 16 nodes"},
		{"negative dst", []Event{{Cycle: 0, Dst: -2, Size: 1}},
			"event 0: dst -2 outside mesh of 16 nodes"},
		{"dst out of range", []Event{{Cycle: 0, Dst: 99, Size: 1}},
			"event 0: dst 99 outside mesh of 16 nodes"},
		{"negative size", []Event{{Cycle: 0, Size: -5}},
			"event 0: size -5"},
		{"zero size", []Event{{Cycle: 0, Size: 0}},
			"event 0: size 0"},
		{"negative class", []Event{{Cycle: 0, Size: 1, Class: -1}},
			"event 0: class -1 outside"},
		{"class out of range", []Event{{Cycle: 0, Size: 1, Class: 42}},
			"event 0: class 42 outside"},
	}
	for _, tc := range cases {
		tr := &Trace{Events: tc.ev}
		err := tr.Validate(16)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name the field (want substring %q)", tc.name, err, tc.want)
		}
	}
	// The second event's index is reported, not the first's.
	tr := &Trace{Events: []Event{{Cycle: 0, Size: 1}, {Cycle: 1, Src: 50, Size: 1}}}
	if err := tr.Validate(16); err == nil || !strings.Contains(err.Error(), "event 1:") {
		t.Fatalf("wrong index in %v", err)
	}
}
