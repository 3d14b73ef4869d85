package msg

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// flits is p's flit sequence, one FlitAt per position.
func flits(p *Packet) []Flit {
	fs := make([]Flit, p.Size)
	for i := range fs {
		fs[i] = FlitAt(p, i)
	}
	return fs
}

func TestFlitsSingle(t *testing.T) {
	p := &Packet{ID: 1, Size: 1}
	fs := flits(p)
	if len(fs) != 1 || fs[0].Type != HeadTail {
		t.Fatalf("single-flit packet: %+v", fs)
	}
	if !fs[0].Type.IsHead() || !fs[0].Type.IsTail() {
		t.Fatal("HeadTail must be both head and tail")
	}
}

func TestFlitsMulti(t *testing.T) {
	p := &Packet{ID: 2, Size: 5}
	fs := flits(p)
	if len(fs) != 5 {
		t.Fatalf("len = %d", len(fs))
	}
	if fs[0].Type != Head || fs[4].Type != Tail {
		t.Fatal("head/tail misplaced")
	}
	for i := 1; i < 4; i++ {
		if fs[i].Type != Body {
			t.Fatalf("flit %d type %v", i, fs[i].Type)
		}
	}
	for i, f := range fs {
		if f.Seq != i || f.Pkt != p {
			t.Fatalf("flit %d seq/pkt wrong", i)
		}
	}
}

// Property: any packet has exactly one head and one tail, in the right spots.
func TestFlitsInvariant(t *testing.T) {
	if err := quick.Check(func(size8 uint8) bool {
		size := int(size8%10) + 1
		fs := flits(&Packet{Size: size})
		heads, tails := 0, 0
		for _, f := range fs {
			if f.Type.IsHead() {
				heads++
			}
			if f.Type.IsTail() {
				tails++
			}
		}
		return heads == 1 && tails == 1 && fs[0].Type.IsHead() && fs[len(fs)-1].Type.IsTail()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlitsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FlitAt(&Packet{Size: 0}, 0)
}

func TestLatencies(t *testing.T) {
	p := &Packet{CreatedAt: 10, InjectedAt: 15, EjectedAt: 40}
	if p.TotalLatency() != 30 {
		t.Fatalf("TotalLatency = %d", p.TotalLatency())
	}
	if p.NetworkLatency() != 25 {
		t.Fatalf("NetworkLatency = %d", p.NetworkLatency())
	}
}

func TestStrings(t *testing.T) {
	if ClassRequest.String() != "Request" || ClassResponse.String() != "Response" {
		t.Fatal("Class strings")
	}
	if Class(7).String() != "Class(7)" {
		t.Fatal("unknown class string")
	}
	for _, tc := range []struct {
		ft   FlitType
		want string
	}{{Head, "Head"}, {Body, "Body"}, {Tail, "Tail"}, {HeadTail, "HeadTail"}} {
		if tc.ft.String() != tc.want {
			t.Fatalf("%v string", tc.ft)
		}
	}
	p := &Packet{ID: 3, App: 1, Src: 0, Dst: 5, Class: ClassRequest, Size: 1}
	if p.String() == "" {
		t.Fatal("empty packet string")
	}
}

// Routers copy flits by value through every buffer, register and wire: the
// struct stays four words in four fields (a fifth field would take it out of
// registers).
func TestFlitShape(t *testing.T) {
	if n, f := unsafe.Sizeof(Flit{}), reflect.TypeOf(Flit{}).NumField(); n != 32 || f != 4 {
		t.Fatalf("Flit is %d bytes in %d fields, want 32 in 4", n, f)
	}
}
