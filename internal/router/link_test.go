package router

import (
	"testing"

	"rair/internal/msg"
)

func TestLinkFlitLatency(t *testing.T) {
	l := NewLink(2)
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
	l := NewLink(3)
	l.SendCredit(4)
	credit, ok := l.ShiftCredits()
	if !ok || credit != 4 {
		t.Fatal("credit must arrive after exactly one cycle")
	}
}

func TestLinkFullDuplex(t *testing.T) {
	l := NewLink(1)
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
	l := NewLink(2)
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
