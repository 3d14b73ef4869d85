package router

import (
	"testing"

	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/topology"
)

// benchFeed puts a packet's head plus enough body flits to fill the VC
// buffer onto input port dir VC 1 of r, and runs RC and VA so the VC is
// actively streaming. The input port must have no upstream link attached
// (so transfers don't accumulate credits on an unshifted wire).
func benchFeed(b *testing.B, r *Router, dir topology.Dir, pkt *msg.Packet, now *int64) {
	b.Helper()
	head := msg.FlitAt(pkt, 0)
	head.VC = 1
	r.DeliverFlit(dir, head)
	for i := 1; i < r.cfg.Depth; i++ {
		f := msg.FlitAt(pkt, i)
		f.VC = 1
		r.DeliverFlit(dir, f)
	}
	r.Tick(*now) // RC
	*now++
	r.Tick(*now) // VA
	*now++
	if r.in[dir].vcs[1].stage != stageActive {
		b.Fatalf("setup: VC on %s did not reach the active stage", dir)
	}
}

// BenchmarkSwitchAllocation measures SA in its two steady shapes: "stalled"
// is the pure candidate scan with every VC blocked behind an occupied ST
// register (the no-op path an interfered router spins on), "grant" is the
// uncontended single-candidate arbitration through SA_in, SA_out and the
// flit transfer into the ST register.
func BenchmarkSwitchAllocation(b *testing.B) {
	b.Run("stalled", func(b *testing.B) {
		cfg := DefaultConfig(1)
		r, _ := testRouter(cfg, policy.Spec{})
		var now int64
		// Two streams from linkless input ports, both bound for East.
		benchFeed(b, r, topology.East, &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 1, Size: 4096, Class: msg.ClassRequest}, &now)
		benchFeed(b, r, topology.North, &msg.Packet{ID: 2, App: 0, Src: 0, Dst: 1, Size: 4096, Class: msg.ClassRequest}, &now)
		// Two more ticks: the first SA winner traverses onto the east
		// link; the link is never shifted, so the next winner sticks in
		// the ST register and every later SA pass scans and stalls.
		r.Tick(now)
		now++
		r.Tick(now)
		now++
		if r.stBusy>>uint(topology.East)&1 == 0 {
			b.Fatal("setup: ST register did not latch")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.switchAllocation()
		}
	})
	b.Run("grant", func(b *testing.B) {
		cfg := DefaultConfig(1)
		r, _ := testRouter(cfg, policy.Spec{})
		var now int64
		// A stream ejecting at the local port: the sink consumes no
		// credits, so the transfer path runs every cycle.
		benchFeed(b, r, topology.East, &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 0, Size: 1 << 30, Class: msg.ClassRequest}, &now)
		r.Tick(now) // SA latches the first flit into the local ST register
		if r.stBusy>>uint(topology.Local)&1 == 0 {
			b.Fatal("setup: local ST register did not latch")
		}
		in := r.in[topology.East]
		vc := &in.vcs[1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Recycle the ST register and the consumed flit so every
			// iteration runs the grant + transfer path from the same
			// state.
			r.stBusy = 0
			r.soa.Work[r.li]--
			vc.front--
			vc.n++
			in.occMask |= 1 << 1
			in.bufFlits++
			r.switchAllocation()
		}
	})
}

// BenchmarkFlitStreaming pumps one very long packet eastwards with the
// link drained and its credit returned every cycle: a streaming router's
// whole tick, arbitrating every cycle.
func BenchmarkFlitStreaming(b *testing.B) {
	cfg := DefaultConfig(1)
	r, east := testRouter(cfg, policy.Spec{})
	var now int64
	pkt := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 1, Size: 1 << 30, Class: msg.ClassRequest}
	benchFeed(b, r, topology.North, pkt, &now)
	in := r.in[topology.North]
	vc := &in.vcs[1]
	seq := cfg.Depth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Play the engine's link phase by hand: drain the east wire,
		// recycle the consumed flit's credit, top the input VC back up.
		if cr, ok := east.ShiftCredits(); ok {
			r.DeliverCredit(topology.East, cr)
		}
		if f, ok := east.ShiftFlits(); ok {
			east.SendCredit(f.VC)
		}
		if int(vc.n) < cfg.Depth {
			nf := msg.FlitAt(pkt, seq)
			nf.VC = 1
			r.DeliverFlit(topology.North, nf)
			seq++
		}
		r.Tick(now)
		now++
	}
	b.StopTimer()
	if sent := r.FlitsSent(topology.East); b.N > 100 && sent < int64(b.N)/2 {
		b.Fatalf("stream stalled: %d flits sent over %d cycles", sent, b.N)
	}
}
