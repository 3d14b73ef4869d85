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
	for i := 1; i < r.soa.depth; i++ {
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
// is the pass of a credit-stalled router, every stream's output VC out of
// credits with flits waiting behind it (the no-op path an interfered router
// spins on), "grant" is the uncontended single-candidate arbitration through
// SA_in, SA_out and the flit transfer into the ST register.
func BenchmarkSwitchAllocation(b *testing.B) {
	b.Run("stalled", func(b *testing.B) {
		cfg := DefaultConfig(1)
		r, east := testRouter(cfg, policy.Spec{})
		var now int64
		// Two streams from linkless input ports, both bound for East.
		dirs := [...]topology.Dir{topology.East, topology.North}
		pkts := [...]*msg.Packet{
			{ID: 1, App: 0, Src: 0, Dst: 1, Size: 4096, Class: msg.ClassRequest},
			{ID: 2, App: 0, Src: 0, Dst: 1, Size: 4096, Class: msg.ClassRequest},
		}
		seq := [len(dirs)]int{}
		for i, d := range dirs {
			benchFeed(b, r, d, pkts[i], &now)
			seq[i] = cfg.Depth
		}
		// The east wire is drained but returns no credit, and the input VCs
		// are topped up: each stream sends its output VC's Depth credits,
		// then waits with a full buffer behind a dry output VC.
		for c := 0; c < 4*cfg.Depth; c++ {
			east.ShiftFlits()
			r.Tick(now)
			now++
			for i, d := range dirs {
				if vc := &r.in[d].vcs[1]; int(vc.n) < cfg.Depth {
					f := msg.FlitAt(pkts[i], seq[i])
					f.VC = 1
					r.DeliverFlit(d, f)
					seq[i]++
				}
			}
		}
		for _, d := range dirs {
			vc := &r.in[d].vcs[1]
			if out := &r.out[vc.outPort]; vc.n == 0 || out.vcs[vc.outVC].credits != 0 {
				b.Fatalf("setup: the stream on %s is not credit-stalled", d)
			}
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
		in := &r.in[topology.East]
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
	in := &r.in[topology.North]
	vc := &in.vcs[1]
	seq, sent := cfg.Depth, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Play the engine's link phase by hand: drain the east wire,
		// recycle the consumed flit's credit, top the input VC back up.
		if cr, ok := east.ShiftCredits(); ok {
			r.DeliverCredit(topology.East, cr)
		}
		if f, ok := east.ShiftFlits(); ok {
			east.SendCredit(f.VC)
			sent++
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
	if b.N > 100 && sent < b.N/2 {
		b.Fatalf("stream stalled: %d flits sent over %d cycles", sent, b.N)
	}
}
