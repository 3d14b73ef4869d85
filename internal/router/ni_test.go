package router

import (
	"testing"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/topology"
)

func testNI(cfg Config) (*NI, *Link, *Link, *[]*msg.Packet) {
	mesh := topology.NewMesh(2, 1)
	regs := region.Single(mesh)
	var ejected []*msg.Packet
	ni := NewNIInStore(cfg, 0, regs, func(p *msg.Packet, now int64) {
		ejected = append(ejected, p)
	}, NewSoA(cfg, 1), 0)
	inj, ej := ni.Links()
	return ni, inj, ej, &ejected
}

func TestNIStreamsFlitsInOrder(t *testing.T) {
	cfg := DefaultConfig(1)
	ni, inj, _, _ := testNI(cfg)
	p := &msg.Packet{ID: 1, Src: 0, Dst: 1, Size: 3, Class: msg.ClassRequest}
	ni.Inject(p, 0)
	if ni.Created() != 1 || ni.queued != 1 {
		t.Fatal("queue accounting wrong")
	}
	var got []msg.Flit
	for c := int64(0); c < 10; c++ {
		if f, ok := inj.ShiftFlits(); ok {
			got = append(got, f)
		}
		ni.Tick(c)
	}
	if len(got) != 3 {
		t.Fatalf("sent %d flits, want 3", len(got))
	}
	for i, f := range got {
		if f.Seq != i || f.Pkt != p {
			t.Fatalf("flit %d out of order: %+v", i, f)
		}
		if f.VC != got[0].VC {
			t.Fatal("flits switched VCs mid-packet")
		}
	}
	if p.InjectedAt < 0 {
		t.Fatal("InjectedAt not stamped")
	}
	if ni.queued > 0 || ni.streamMask != 0 {
		t.Fatal("NI still pending after streaming")
	}
}

func TestNIStampsPacket(t *testing.T) {
	cfg := DefaultConfig(1)
	mesh := topology.NewMesh(4, 1)
	regs := region.New(mesh)
	regs.Assign(0, 0)
	regs.Assign(1, 0)
	regs.Assign(2, 1)
	regs.Assign(3, 1)
	ni := NewNIInStore(cfg, 0, regs, nil, NewSoA(cfg, 1), 0)
	intra := &msg.Packet{ID: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	inter := &msg.Packet{ID: 2, Src: 0, Dst: 3, Size: 1, Class: msg.ClassRequest}
	ni.Inject(intra, 42)
	ni.Inject(inter, 43)
	if intra.CreatedAt != 42 || intra.Global || !inter.Global {
		t.Fatalf("stamping wrong: %+v %+v", intra, inter)
	}
	if intra.EjectedAt != -1 || intra.InjectedAt != -1 {
		t.Fatal("latency stamps must start unset")
	}
}

func TestNIRejectsWrongNodeOrClass(t *testing.T) {
	cfg := DefaultConfig(1)
	ni, _, _, _ := testNI(cfg)
	for _, p := range []*msg.Packet{
		{ID: 1, Src: 1, Dst: 0, Size: 1, Class: msg.ClassRequest},  // wrong node
		{ID: 2, Src: 0, Dst: 1, Size: 1, Class: msg.ClassResponse}, // unconfigured class
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("packet %v accepted", p)
				}
			}()
			ni.Inject(p, 0)
		}()
	}
}

func TestNIRespectsCredits(t *testing.T) {
	cfg := DefaultConfig(1) // depth 5
	ni, inj, _, _ := testNI(cfg)
	// 7-flit packet: only Depth flits may go out before credits return.
	p := &msg.Packet{ID: 1, Src: 0, Dst: 1, Size: 7, Class: msg.ClassRequest}
	ni.Inject(p, 0)
	sent := 0
	for c := int64(0); c < 20; c++ {
		if _, ok := inj.ShiftFlits(); ok {
			sent++
		}
		ni.Tick(c)
	}
	if sent != cfg.Depth {
		t.Fatalf("sent %d flits without credits, want %d", sent, cfg.Depth)
	}
	// Return two credits: exactly two more flits flow.
	vc := 0
	for i, s := range ni.streams {
		if s.pkt != nil {
			vc = i
		}
	}
	ni.DeliverCredit(vc)
	ni.DeliverCredit(vc)
	for c := int64(20); c < 40; c++ {
		if _, ok := inj.ShiftFlits(); ok {
			sent++
		}
		ni.Tick(c)
	}
	if sent != cfg.Depth+2 {
		t.Fatalf("sent %d flits after 2 credits, want %d", sent, cfg.Depth+2)
	}
}

func TestNIInterleavesTwoVCs(t *testing.T) {
	cfg := DefaultConfig(1)
	ni, inj, _, _ := testNI(cfg)
	a := &msg.Packet{ID: 1, Src: 0, Dst: 1, Size: 4, Class: msg.ClassRequest}
	b := &msg.Packet{ID: 2, Src: 0, Dst: 1, Size: 4, Class: msg.ClassRequest}
	ni.Inject(a, 0)
	ni.Inject(b, 0)
	seen := map[uint64]int{}
	for c := int64(0); c < 30; c++ {
		if f, ok := inj.ShiftFlits(); ok {
			seen[f.Pkt.ID]++
		}
		ni.Tick(c)
	}
	if seen[1] != 4 || seen[2] != 4 {
		t.Fatalf("flit counts %v", seen)
	}
}

func TestNIVCReuseAfterDrain(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.AdaptiveVCs = 1
	cfg.GlobalVCs = 0 // two VCs total: 1 escape + 1 regional
	ni, inj, _, _ := testNI(cfg)
	// Three packets through two VCs: requires freeing drained VCs.
	for i := 1; i <= 3; i++ {
		ni.Inject(&msg.Packet{ID: uint64(i), Src: 0, Dst: 1, Size: 2, Class: msg.ClassRequest}, 0)
	}
	sent := 0
	for c := int64(0); c < 60; c++ {
		if f, ok := inj.ShiftFlits(); ok {
			sent++
			ni.DeliverCredit(f.VC) // instant credit return
		}
		ni.Tick(c)
	}
	if sent != 6 {
		t.Fatalf("sent %d flits, want 6 (VCs not recycled?)", sent)
	}
}

func TestNIEjection(t *testing.T) {
	cfg := DefaultConfig(1)
	ni, _, _, ejected := testNI(cfg)
	p := &msg.Packet{ID: 9, Src: 1, Dst: 0, Size: 2, Class: msg.ClassRequest}
	ni.DeliverFlit(msg.FlitAt(p, 0), 100)
	if len(*ejected) != 0 {
		t.Fatal("ejected before tail")
	}
	ni.DeliverFlit(msg.FlitAt(p, 1), 101)
	if len(*ejected) != 1 || p.EjectedAt != 101 || ni.Ejected() != 1 {
		t.Fatalf("ejection bookkeeping wrong: %+v", p)
	}
}

func TestNIEjectionWrongDestPanics(t *testing.T) {
	cfg := DefaultConfig(1)
	ni, _, _, _ := testNI(cfg)
	p := &msg.Packet{ID: 9, Src: 1, Dst: 1, Size: 1, Class: msg.ClassRequest}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ni.DeliverFlit(msg.FlitAt(p, 0), 0)
}

func TestNIPerClassQueues(t *testing.T) {
	cfg := DefaultConfig(2)
	ni, inj, _, _ := testNI(cfg)
	req := &msg.Packet{ID: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	rsp := &msg.Packet{ID: 2, Src: 0, Dst: 1, Size: 5, Class: msg.ClassResponse}
	ni.Inject(req, 0)
	ni.Inject(rsp, 0)
	classes := map[msg.Class]bool{}
	for c := int64(0); c < 20; c++ {
		if f, ok := inj.ShiftFlits(); ok {
			classes[msg.Class(f.VC/cfg.VCsPerClass())] = true
		}
		ni.Tick(c)
	}
	if !classes[msg.ClassRequest] || !classes[msg.ClassResponse] {
		t.Fatalf("classes on the wire: %v", classes)
	}
}
