package memsys

import (
	"testing"

	"rair/internal/msg"
)

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(128, 2, 64)
	c.Access(0x40)
	if !c.Invalidate(0x40) {
		t.Fatal("present block not invalidated")
	}
	if c.Invalidate(0x40) {
		t.Fatal("absent block invalidated")
	}
	if c.Access(0x40) {
		t.Fatal("re-access after invalidation must miss")
	}
}

// Two cores read-share a block; a write by one invalidates the other's L1
// copy and produces exactly one invalidation plus its ack.
func TestWriteSharingInvalidates(t *testing.T) {
	streams := nilStreams()
	cfg := DefaultSystemConfig()
	cfg.SharedFrac = 0
	sys, rn := quadSys(streams, cfg)
	const addr = 0x7700
	home := sys.HomeBank(0, addr)
	reader, writer := 9, 10 // both app 0

	// Reader fetches the block (read): directory records it.
	sys.cores[reader].l1.Access(addr) // simulate the fill the data reply implies
	sys.HandleEject(request(reader, home, addr, false), 0)
	drainDelayed(sys, rn, 20)
	rn.inflight = nil // discard the data reply

	// Writer writes the same block: one invalidation to the reader.
	sys.HandleEject(request(writer, home, addr, true), 30)
	drainDelayed(sys, rn, 60)

	var inv *msg.Packet
	for _, p := range rn.inflight {
		if kindOf(p) == invRequest {
			if inv != nil {
				t.Fatal("more than one invalidation")
			}
			inv = p
		}
	}
	if inv == nil || inv.Dst != reader {
		t.Fatalf("no invalidation to reader; inflight %v", rn.inflight)
	}
	if sys.Snapshot().InvalidationsSent != 1 {
		t.Fatalf("stats %+v", sys.Snapshot())
	}

	// Deliver the invalidation: the reader's L1 copy must vanish and an
	// ack must flow back to the bank.
	rn.inflight = nil
	sys.HandleEject(inv, 70)
	if sys.cores[reader].l1.Invalidate(addr) {
		t.Fatal("reader's L1 copy survived invalidation")
	}
	drainDelayed(sys, rn, 90)
	var ack *msg.Packet
	for _, p := range rn.inflight {
		if kindOf(p) == invAck {
			ack = p
		}
	}
	if ack == nil || ack.Dst != home {
		t.Fatal("no ack to the home bank")
	}
	sys.HandleEject(ack, 100)
	if sys.Snapshot().InvAcksReceived != 1 || sys.Snapshot().L1Invalidated != 1 {
		t.Fatalf("stats %+v", sys.Snapshot())
	}
}

// A write by the only sharer triggers no invalidations.
func TestWriteByOwnerQuiet(t *testing.T) {
	streams := nilStreams()
	cfg := DefaultSystemConfig()
	cfg.SharedFrac = 0
	sys, rn := quadSys(streams, cfg)
	const addr = 0x9900
	home := sys.HomeBank(0, addr)
	for i := 0; i < 3; i++ {
		sys.HandleEject(request(9, home, addr, true), int64(i*10))
	}
	drainDelayed(sys, rn, 60)
	if n := sys.Snapshot().InvalidationsSent; n != 0 {
		t.Fatalf("%d invalidations for a private block", n)
	}
}

// Reads never invalidate; the sharer set just grows.
func TestReadSharingQuiet(t *testing.T) {
	streams := nilStreams()
	cfg := DefaultSystemConfig()
	cfg.SharedFrac = 0
	sys, rn := quadSys(streams, cfg)
	const addr = 0xAA00
	home := sys.HomeBank(0, addr)
	for _, core := range []int{8, 9, 10, 11} {
		sys.HandleEject(request(core, home, addr, false), 0)
	}
	drainDelayed(sys, rn, 60)
	if n := sys.Snapshot().InvalidationsSent; n != 0 {
		t.Fatalf("%d invalidations from reads", n)
	}
	// A write now invalidates all three other sharers.
	sys.HandleEject(request(8, home, addr, true), 100)
	drainDelayed(sys, rn, 160)
	if n := sys.Snapshot().InvalidationsSent; n != 3 {
		t.Fatalf("invalidations = %d, want 3", n)
	}
}

// drainDelayed ticks the system so delayed protocol actions inject.
func drainDelayed(sys *System, rn *recordingNet, until int64) {
	for c := int64(0); c <= until; c++ {
		sys.Tick(c)
	}
}

// packet builds a request's packet the way send does, without injecting
// it, for a test to hand straight to HandleEject.
func packet(app, src, dst int, pl payload) *msg.Packet {
	m := &message{pl: pl}
	m.pkt = msg.Packet{App: app, Src: src, Dst: dst, Class: msg.ClassRequest, Size: 1, Payload: m}
	return &m.pkt
}

// request is an application-0 core's L2 request for addr arriving at home.
func request(core, home int, addr uint64, write bool) *msg.Packet {
	return packet(0, core, home, payload{kind: l2Request, addr: addr, core: core, write: write})
}

// kindOf is the protocol kind an in-flight packet carries, or 255 for a
// packet the memory system did not send.
func kindOf(p *msg.Packet) reqKind {
	if m, ok := p.Payload.(*message); ok {
		return m.pl.kind
	}
	return 255
}
