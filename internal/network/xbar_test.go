package network

import (
	"testing"
	"testing/quick"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/topology"
)

// grantRec is one OnGrant observation.
type grantRec struct {
	src, dst  int
	now, hold int64
}

// TestCrossbarPartitioningProperty: across random chiplet grids and packet
// mixes, the DQ-pin channel partitioning must (a) conserve packets
// and flits end to end, and (b) never grant two packets on one source
// channel — or into one destination port — with overlapping serialization
// holds. Property (b) is exactly "one chiplet cannot steal another's
// serialization bandwidth": a channel busy-interval collision would mean
// two sources driving the same lanes in the same cycle.
func TestCrossbarPartitioningProperty(t *testing.T) {
	prop := func(seed uint64, gx, gy, npk uint8) bool {
		chips := topology.NewChiplets(2+int(gx)%3, 1+int(gy)%3, 2)
		rng := sim.NewRNG(seed*2 + 1)
		var grants []grantRec
		var gotPkts, gotFlits int64
		xb := NewCrossbar(chips, func(f xbarFlight, now int64) {
			gotPkts++
			gotFlits += int64(f.pkt.Size)
		})
		xb.OnGrant = func(src, dst int, now, hold int64) {
			grants = append(grants, grantRec{src, dst, now, hold})
		}

		n := 1 + int(npk)%60
		var wantFlits int64
		submitted := 0
		for now := int64(0); submitted < n || !xb.Idle(); now++ {
			if now > int64(n)*2000 {
				t.Fatalf("crossbar did not drain after %d cycles", now)
			}
			// Random burst of submissions this cycle.
			for submitted < n && rng.Bool(0.4) {
				src := rng.Intn(chips.Chips())
				dst := rng.Intn(chips.Chips())
				if dst == src {
					dst = (dst + 1) % chips.Chips()
				}
				size := msg.ShortPacketFlits
				if rng.Bool(0.5) {
					size = msg.LongPacketFlits
				}
				p := &msg.Packet{
					ID: uint64(submitted + 1), Src: chips.Gateway(src),
					Dst: chips.Gateway(src), FinalDst: chips.Gateway(dst),
					Size: size,
				}
				xb.Submit(p, now, now)
				wantFlits += int64(size)
				submitted++
			}
			xb.Tick(now)
		}

		if len(grants) != n || gotPkts != int64(n) || gotFlits != wantFlits {
			return false
		}
		// Busy intervals per source channel and per destination port must
		// not overlap: a grant at g occupies [g.now, g.now+g.hold).
		last := map[[2]int]int64{} // {axis, index} -> busy-until
		for _, g := range grants {
			if g.hold < 1 {
				return false
			}
			for _, key := range [][2]int{{0, g.src}, {1, g.dst}} {
				if until, ok := last[key]; ok && g.now < until {
					return false
				}
				if last[key] < g.now+g.hold {
					last[key] = g.now + g.hold
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossbarSerializationHold: the partitioned-channel serialization math —
// the 64-lane pool over 4 chiplets is 16 lanes per channel, so a 16-phit
// flit takes one cycle, and more chiplets split the pool into narrower
// channels that serialize proportionally longer.
func TestCrossbarSerializationHold(t *testing.T) {
	cases := []struct {
		chipsX, chipsY int
		want           int64
	}{
		{2, 1, 1},    // 32 lanes/chan, 16 phits -> 1 cycle
		{2, 2, 1},    // 16 lanes/chan -> 1
		{3, 2, 2},    // 10 lanes/chan -> ceil(16/10)
		{3, 3, 3},    // 7 lanes/chan -> ceil(16/7)
		{4, 4, 4},    // 4 lanes/chan
		{6, 6, 16},   // 1 lane/chan
		{10, 10, 16}, // a pool below one lane per chiplet clamps to 1 lane
	}
	for _, c := range cases {
		xb := NewCrossbar(topology.NewChiplets(c.chipsX, c.chipsY, 2), func(xbarFlight, int64) {})
		if got := xb.holdPerFlit; got != c.want {
			t.Errorf("%dx%d chiplets: hold %d, want %d", c.chipsX, c.chipsY, got, c.want)
		}
	}
}

// TestChipletNetworkEndToEnd: a full chiplet network — mesh legs, bridge
// ejection, crossbar crossing, gateway re-injection — delivers every
// packet with its FinalDst restored and its latency spanning both legs,
// and drains clean under the conservation checks.
func TestChipletNetworkEndToEnd(t *testing.T) {
	chips := topology.NewChiplets(2, 2, 4)
	mesh := chips.Mesh()
	regs := region.Grid(mesh, 2, 2)
	var delivered []*msg.Packet
	var grants int
	n := New(Params{
		Router:   router.DefaultConfig(1),
		Regions:  regs,
		Alg:      routing.MinimalAdaptive{Mesh: mesh},
		Sel:      routing.LocalSelector{},
		Chiplets: chips,
		OnEject:  func(p *msg.Packet, now int64) { delivered = append(delivered, p) },
	})

	n.xbar.OnGrant = func(src, dst int, now, hold int64) { grants++ }

	// One packet from every node to its mirror: most pairs cross chiplets,
	// the rest exercise the unchanged local path.
	var want, cross int
	for id := 0; id < mesh.N(); id++ {
		dst := mesh.N() - 1 - id
		size := msg.ShortPacketFlits
		if id%2 == 1 {
			size = msg.LongPacketFlits
		}
		p := &msg.Packet{ID: uint64(id + 1), App: regs.AppAt(id), Src: id, Dst: dst,
			Class: msg.ClassRequest, Size: size}
		n.Inject(p, int64(id%8))
		want++
		if !chips.SameChip(id, dst) {
			cross++
		}
	}
	for c := int64(0); c < 5000 && len(delivered) < want; c++ {
		n.Tick(c)
	}
	if len(delivered) != want {
		t.Fatalf("delivered %d of %d packets", len(delivered), want)
	}
	for _, p := range delivered {
		if p.Dst != p.FinalDst {
			t.Fatalf("packet %d ejected at Dst %d != FinalDst %d", p.ID, p.Dst, p.FinalDst)
		}
		if p.EjectedAt < p.CreatedAt {
			t.Fatalf("packet %d: EjectedAt %d before CreatedAt %d", p.ID, p.EjectedAt, p.CreatedAt)
		}
		if !chips.SameChip(p.Src, p.Dst) && p.TotalLatency() <= xbarLatency {
			t.Fatalf("cross-chiplet packet %d latency %d does not span the crossing", p.ID, p.TotalLatency())
		}
	}
	if grants != cross {
		t.Fatalf("crossbar carried %d packets, want %d", grants, cross)
	}
	if !n.Drained() {
		t.Fatal("network not drained")
	}
	n.CheckDrained()
}
