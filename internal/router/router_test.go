package router

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rair/internal/arbiter"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/topology"
)

// testRouter builds a router for node 0 (app 0) of a 2×1 mesh with node 1
// foreign, wired with an east output link, under the given policy and VC
// configuration.
func testRouter(cfg Config, pol policy.Spec) (*Router, testLink) {
	mesh := topology.NewMesh(2, 1)
	regs := region.New(mesh)
	regs.Assign(0, 0)
	regs.Assign(1, 1)
	soa := NewSoA(cfg, regs, routing.MinimalAdaptive{Mesh: mesh}, routing.LocalSelector{}, nil, 1)
	r := NewInStore(soa, 0, 0, 0, pol)
	east := newTestLink(cfg.LinkLatency)
	r.ConnectOut(topology.East, east.f)
	r.ConnectIn(topology.West, newTestLink(cfg.LinkLatency).c)
	r.ConnectIn(topology.Local, newTestLink(cfg.LinkLatency).c)
	return r, east
}

// oneVCConfig leaves a single regional adaptive VC (plus the escape VC), so
// two competing packets must arbitrate at VA_out.
func oneVCConfig() Config {
	cfg := DefaultConfig(1)
	cfg.AdaptiveVCs = 1
	cfg.GlobalVCs = 0
	return cfg
}

func headFlit(p *msg.Packet, vc int) msg.Flit {
	f := msg.FlitAt(p, 0)
	f.VC = vc
	return f
}

// Under RAIR (foreign-high default), a foreign head must win the contended
// output VC against a native head that arrived the same cycle.
func TestVAOutPrefersForeignUnderRAIR(t *testing.T) {
	cfg := oneVCConfig()
	r, _ := testRouter(cfg, policy.Spec{Priority: policy.ForeignH})
	nativePkt := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	foreignPkt := &msg.Packet{ID: 2, App: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest, Global: true}
	// Native on the Local port VC1 (the regional VC), foreign on West VC1.
	r.DeliverFlit(topology.Local, headFlit(nativePkt, 1))
	r.DeliverFlit(topology.West, headFlit(foreignPkt, 1))
	r.Tick(0) // RC
	r.Tick(1) // VA: both request the single regional output VC
	win := r.in[topology.West].vcs[1]
	lose := r.in[topology.Local].vcs[1]
	if win.stage != stageActive {
		t.Fatalf("foreign VC stage %v, want Active", win.stage)
	}
	if lose.stage == stageActive {
		// The loser may have taken the escape VC (East is its DOR
		// direction) — that is legal and still respects the priority;
		// both being Active is only wrong if they share the out VC.
		if lose.outVC == win.outVC {
			t.Fatal("both packets allocated the same output VC")
		}
	}
	if r.out[topology.East].vcs[win.outVC].owner != foreignPkt {
		t.Fatal("output VC not owned by the foreign packet")
	}
}

// Under RO_RR both heads are equal: the single regional VC goes to exactly
// one of them (round-robin), never both.
func TestVAOutAtomicAllocation(t *testing.T) {
	cfg := oneVCConfig()
	r, _ := testRouter(cfg, policy.Spec{})
	a := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	b := &msg.Packet{ID: 2, App: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	r.DeliverFlit(topology.Local, headFlit(a, 1))
	r.DeliverFlit(topology.West, headFlit(b, 1))
	r.Tick(0)
	r.Tick(1)
	owners := map[*msg.Packet]int{}
	for _, ov := range r.out[topology.East].vcs {
		if ov.owner != nil {
			owners[ov.owner]++
		}
	}
	if owners[a]+owners[b] == 0 {
		t.Fatal("nobody won VA")
	}
	for p, n := range owners {
		if n > 1 {
			t.Fatalf("packet %v owns %d output VCs", p, n)
		}
	}
}

// With MSP at SA, a foreign flit must traverse the switch ahead of a native
// flit queued at a different input port for the same output port.
func TestSAOutPrefersForeignUnderRAIR(t *testing.T) {
	cfg := DefaultConfig(1) // plenty of VCs: no VA contention
	r, east := testRouter(cfg, policy.Spec{Priority: policy.ForeignH})
	nativePkt := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	foreignPkt := &msg.Packet{ID: 2, App: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest, Global: true}
	r.DeliverFlit(topology.Local, headFlit(nativePkt, 3))
	r.DeliverFlit(topology.West, headFlit(foreignPkt, 3))
	r.Tick(0) // RC
	r.Tick(1) // VA: distinct output VCs, both Active
	r.Tick(2) // SA: one winner for the East port
	if r.stBusy>>uint(topology.East)&1 == 0 {
		t.Fatal("no flit won SA")
	}
	if r.out[topology.East].st.pkt != foreignPkt {
		t.Fatalf("ST holds %v, want the foreign packet", r.out[topology.East].st.pkt)
	}
	r.Tick(3) // ST: flit onto the link
	if _, ok := east.ShiftFlits(); ok {
		t.Fatal("flit arrived before link latency")
	}
}

// Credits must flow back on the input port's link when a flit is dequeued.
func TestCreditReturn(t *testing.T) {
	cfg := DefaultConfig(1)
	r, _ := testRouter(cfg, policy.Spec{})
	west := testLink{c: r.in[topology.West].credit}
	p := &msg.Packet{ID: 1, App: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	r.DeliverFlit(topology.West, headFlit(p, 2))
	gotCredit := -1
	for c := int64(0); c < 6; c++ {
		if credit, ok := west.ShiftCredits(); ok {
			gotCredit = credit
		}
		r.Tick(c)
	}
	// The flit was dequeued at SA; its credit must have crossed the wire.
	if gotCredit != 2 {
		t.Fatalf("credit = %d, want VC 2", gotCredit)
	}
}

// The DPA registers must reflect arrivals and departures exactly.
func TestOccupancyTracking(t *testing.T) {
	cfg := DefaultConfig(1)
	r, east := testRouter(cfg, policy.Spec{})
	nativePkt := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	foreignPkt := &msg.Packet{ID: 2, App: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	r.DeliverFlit(topology.Local, headFlit(nativePkt, 1))
	r.DeliverFlit(topology.West, headFlit(foreignPkt, 1))
	if nat, frn := r.OccupancyByKind(); nat != 1 || frn != 1 {
		t.Fatalf("occupancy %d/%d after arrivals", nat, frn)
	}
	for c := int64(0); c < 10; c++ {
		east.ShiftFlits() // drain the output wire so ST never stalls
		r.Tick(c)
	}
	if nat, frn := r.OccupancyByKind(); nat != 0 || frn != 0 {
		t.Fatalf("occupancy %d/%d after drain", nat, frn)
	}
	if r.BufferedFlits() != 0 {
		t.Fatal("flits left behind")
	}
}

// OldestOwner surfaces the earliest-created resident packet.
func TestOldestOwner(t *testing.T) {
	cfg := DefaultConfig(1)
	r, _ := testRouter(cfg, policy.Spec{})
	if r.OldestOwner() != nil {
		t.Fatal("empty router has an owner")
	}
	young := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 1, Size: 5, Class: msg.ClassRequest, CreatedAt: 50}
	old := &msg.Packet{ID: 2, App: 1, Src: 0, Dst: 1, Size: 5, Class: msg.ClassRequest, CreatedAt: 10}
	r.DeliverFlit(topology.Local, headFlit(young, 1))
	r.DeliverFlit(topology.West, headFlit(old, 1))
	if got := r.OldestOwner(); got != old {
		t.Fatalf("OldestOwner = %v", got)
	}
}

// DebugState must mention resident packets (diagnostic plumbing).
func TestDebugState(t *testing.T) {
	cfg := DefaultConfig(1)
	r, _ := testRouter(cfg, policy.Spec{})
	p := &msg.Packet{ID: 7, App: 0, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	r.DeliverFlit(topology.Local, headFlit(p, 1))
	if s := r.DebugState(); len(s) == 0 || !containsPkt(s) {
		t.Fatalf("debug state:\n%s", s)
	}
}

func containsPkt(s string) bool {
	for i := 0; i+4 < len(s); i++ {
		if s[i:i+4] == "pkt#" {
			return true
		}
	}
	return false
}

// TestDeliverRejects: a VC buffers one run of its owner's flits, so each
// arrival that cannot extend the run panics in deliver, naming why.
func TestDeliverRejects(t *testing.T) {
	cfg := DefaultConfig(1)
	p := &msg.Packet{ID: 1, App: 0, Src: 1, Dst: 0, Size: 3 * cfg.Depth, Class: msg.ClassRequest}
	q := &msg.Packet{ID: 2, App: 0, Src: 1, Dst: 0, Size: 3 * cfg.Depth, Class: msg.ClassRequest}
	flit := func(p *msg.Packet, seq int) msg.Flit {
		f := msg.FlitAt(p, seq)
		f.VC = 1
		return f
	}
	cases := []struct {
		name   string
		arrive []msg.Flit // after p's head
		want   string
	}{
		{"head on a busy VC", []msg.Flit{flit(q, 0)}, "head flit on a busy VC"},
		{"body of another packet", []msg.Flit{flit(q, 1)}, "body flit of another packet"},
		{"out of sequence", []msg.Flit{flit(p, 2)}, "flit out of sequence"},
		{"repeated flit", []msg.Flit{flit(p, 1), flit(p, 1)}, "flit out of sequence"},
		{"full VC", func() []msg.Flit {
			var fs []msg.Flit
			for seq := 1; seq <= cfg.Depth; seq++ {
				fs = append(fs, flit(p, seq))
			}
			return fs
		}(), "VC overflow"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, _ := testRouter(cfg, policy.Spec{})
			r.DeliverFlit(topology.West, flit(p, 0))
			last := len(c.arrive) - 1
			for _, f := range c.arrive[:last] {
				r.DeliverFlit(topology.West, f)
			}
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, c.want) {
					t.Fatalf("panic %q, want one naming %q", got, c.want)
				}
			}()
			r.DeliverFlit(topology.West, c.arrive[last])
		})
	}
}

// TestStateSizes pins every per-router structure at the width the
// configuration bounds allow (Config.Validate: at most 64 VCs per port,
// Depth and LinkLatency at most 256). A router holds NumDirs × VCsPerPort
// input and output VCs and VA arbiters and five ports, and its node an NI,
// five flit rows and four credit bytes, so a field widened to int, or a
// copy of what the shard store holds once, shows up here before it shows
// up as heap per router. The wire rows are pinned exactly.
func TestStateSizes(t *testing.T) {
	for _, c := range []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		// A run, not a ring: the flit ring it replaced made a VC 96 bytes
		// plus its slab.
		{"inputVC", unsafe.Sizeof(inputVC{}), 32},
		{"outputVC", unsafe.Sizeof(outputVC{}), 16},
		// The ST register in its 16-byte wire form, no allocated counter.
		{"InputPort", unsafe.Sizeof(InputPort{}), 96},
		{"OutputPort", unsafe.Sizeof(OutputPort{}), 104},
		// Neither keeps a copy of the configuration, regions, routing,
		// history or SA scratch: the shard store holds them (488 and 304
		// bytes when they did).
		{"Router", unsafe.Sizeof(Router{}), 200},
		{"NI", unsafe.Sizeof(NI{}), 200},
		// A two-slot inline ring of 16-byte wire flits with byte indices.
		{"DelayLine[wireFlit]", unsafe.Sizeof(sim.DelayLine[wireFlit]{}), 48},
		{"arbiter.Prioritized", unsafe.Sizeof(arbiter.Prioritized{}), 4},
	} {
		t.Logf("%s: %d bytes (budget %d)", c.name, c.size, c.budget)
		if c.size > c.budget {
			t.Errorf("%s is %d bytes, budget %d", c.name, c.size, c.budget)
		}
	}
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		// One cache line per flit wire; see flitRow.
		{"flitRow", unsafe.Sizeof(flitRow{}), 64},
		{"wireFlit", unsafe.Sizeof(wireFlit{}), 16},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want exactly %d", c.name, c.size, c.want)
		}
	}
}

// TestFullRunLeavesAtAnyDepth: a run that fills its VC leaves whole and in
// order, at depths either side of 64 up to the 256 cap.
func TestFullRunLeavesAtAnyDepth(t *testing.T) {
	for _, depth := range []int{1, 2, 64, 65, 200, maxSlots} {
		cfg := DefaultConfig(1)
		cfg.Depth = depth
		r, east := testRouter(cfg, policy.Spec{})
		west := testLink{c: r.in[topology.West].credit}
		p := &msg.Packet{ID: 1, App: 1, Src: 0, Dst: 1, Size: depth, Class: msg.ClassRequest}
		var want, got []int
		for seq := 0; seq < depth; seq++ {
			f := msg.FlitAt(p, seq)
			f.VC = 1
			want = append(want, seq)
			r.DeliverFlit(topology.West, f)
		}
		for now := int64(0); now < int64(depth+20); now++ {
			west.ShiftCredits()
			if f, ok := east.ShiftFlits(); ok && f.Pkt == p {
				got = append(got, f.Seq)
			}
			r.Tick(now)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("depth %d: sent %v, want %v", depth, got, want)
		}
	}
}

// A credit an output port never spent panics with a value naming the port
// and the VC, the router-side twin of TestNICreditOverflowNamesNodeAndVC.
func TestCreditOverflowNamesPortAndVC(t *testing.T) {
	r, _ := testRouter(DefaultConfig(1), policy.Spec{})
	defer func() {
		err, _ := recover().(error)
		if err == nil || err.Error() != "router: credit overflow on East VC 2" {
			t.Fatalf("panic %v, want the port and VC named", err)
		}
	}()
	r.DeliverCredit(topology.East, 2) // every VC starts with its full stock
}
