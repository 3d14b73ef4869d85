package router

import (
	"math"
	"testing"
	"unsafe"

	"rair/internal/msg"
)

// testLink is a link outside a network for unit tests: a one-row flit slab
// and a one-byte credit slab of its own, shifted by hand the way the
// engine's sweeps shift them.
type testLink struct {
	f FlitWire
	c CreditWire
}

func newTestLink(latency int) testLink {
	fs, cs := new(FlitSlab), new(CreditSlab)
	fs.Init(1, 0)
	cs.Init(1, 0)
	return testLink{fs.Add(latency, LinkEnd{}, false), cs.Add(LinkEnd{}, false)}
}

func (l testLink) ShiftFlits() (msg.Flit, bool) {
	f, ok := l.f.s.rows[l.f.i].line.Shift()
	return f.flit(), ok
}

func (l testLink) ShiftCredits() (int, bool) {
	vc := l.c.InFlight()
	l.c.s.vcs[l.c.i] = 0
	return vc, vc >= 0
}

func (l testLink) SendFlit(f msg.Flit) { l.f.send(onWire(f)) }
func (l testLink) SendCredit(vc int)   { l.c.send(vc) }
func (l testLink) CanSendFlit() bool   { return l.f.s.rows[l.f.i].line.CanPush() }
func (l testLink) CanSendCredit() bool { return l.c.InFlight() < 0 }
func (l testLink) FlitsBusy() bool     { return l.f.s.rows[l.f.i].line.Busy() }
func (l testLink) CreditsBusy() bool   { return l.c.InFlight() >= 0 }

func TestLinkFlitLatency(t *testing.T) {
	l := newTestLink(2)
	p := &msg.Packet{ID: 1, Size: 1}
	l.SendFlit(msg.Flit{Pkt: p, Type: msg.HeadTail})
	if _, ok := l.ShiftFlits(); ok {
		t.Fatal("flit arrived one cycle early")
	}
	f, ok := l.ShiftFlits()
	if !ok || f.Pkt != p {
		t.Fatal("flit did not arrive after latency")
	}
	if l.FlitsBusy() || l.CreditsBusy() {
		t.Fatal("link busy after delivery")
	}
}

func TestLinkCreditLatencyOne(t *testing.T) {
	l := newTestLink(3)
	l.SendCredit(4)
	credit, ok := l.ShiftCredits()
	if !ok || credit != 4 {
		t.Fatal("credit must arrive after exactly one cycle")
	}
}

func TestLinkFullDuplex(t *testing.T) {
	l := newTestLink(1)
	p := &msg.Packet{ID: 1, Size: 1}
	for c := 0; c < 10; c++ {
		f, fOK := l.ShiftFlits()
		credit, cOK := l.ShiftCredits()
		if c > 0 {
			if !fOK || f.Seq != c-1 {
				t.Fatalf("cycle %d: flit %v %v", c, f, fOK)
			}
			if !cOK || credit != c-1 {
				t.Fatalf("cycle %d: credit %d %v", c, credit, cOK)
			}
		}
		if !l.CanSendFlit() || !l.CanSendCredit() {
			t.Fatalf("cycle %d: link refused traffic", c)
		}
		l.SendFlit(msg.Flit{Pkt: p, Seq: c})
		l.SendCredit(c)
	}
}

func TestLinkOneFlitPerCycle(t *testing.T) {
	l := newTestLink(2)
	p := &msg.Packet{ID: 1, Size: 2}
	l.SendFlit(msg.FlitAt(p, 0))
	if l.CanSendFlit() {
		t.Fatal("second flit in one cycle allowed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double send")
		}
	}()
	l.SendFlit(msg.FlitAt(p, 1))
}

// TestLinkOneCreditPerCycle: a second credit onto a wire whose byte is
// still taken panics, as the router's credit guard always did.
func TestLinkOneCreditPerCycle(t *testing.T) {
	l := newTestLink(2)
	l.SendCredit(0)
	if l.CanSendCredit() {
		t.Fatal("second credit in one cycle allowed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double credit")
		}
	}()
	l.SendCredit(1)
}

// TestWireFlitRoundTrip: msg.Flit → wireFlit → msg.Flit is the identity for
// every flit type, every VC a port can have (Config.Validate caps them at
// 64) and every Seq a packet can carry: an input VC's run numbers its flits
// in an int32, so the first thousand, every power of two and its
// neighbours, and math.MaxInt32 - 1 stand for them.
func TestWireFlitRoundTrip(t *testing.T) {
	p := &msg.Packet{ID: 7, Size: math.MaxInt32}
	seqs := []int{math.MaxInt32 - 1}
	for s := 0; s < 1000; s++ {
		seqs = append(seqs, s)
	}
	for b := 10; b < 31; b++ {
		seqs = append(seqs, 1<<b-1, 1<<b, 1<<b+1)
	}
	for _, typ := range []msg.FlitType{msg.Head, msg.Body, msg.Tail, msg.HeadTail} {
		for vc := 0; vc < 64; vc++ {
			for _, seq := range seqs {
				f := msg.Flit{Pkt: p, Type: typ, Seq: seq, VC: vc}
				w := onWire(f)
				if w == (wireFlit{}) {
					t.Fatalf("%+v encodes to the empty slot", f)
				}
				if got := w.flit(); got != f {
					t.Fatalf("%+v round-trips to %+v", f, got)
				}
			}
		}
	}
}

// TestSlabRowsOnCacheLines: at every slab size the engine can ask for,
// each row's used bytes (all but its trailing padding) lie on one 64-byte
// cache line, so a wire visit touches a single line. Rows are 64 bytes, so
// checking the first row checks them all.
func TestSlabRowsOnCacheLines(t *testing.T) {
	used := unsafe.Offsetof(flitRow{}.end) + unsafe.Sizeof(wireEnd{})
	for n := 1; n <= 2048; n++ {
		var s FlitSlab
		s.Init(n, 0)
		s.Add(2, LinkEnd{}, false)
		if off := uintptr(unsafe.Pointer(&s.rows[0])) % 64; off+used > 64 {
			t.Fatalf("a slab of %d rows starts %d bytes into a cache line: its rows' %d used bytes straddle two", n, off, used)
		}
	}
}
