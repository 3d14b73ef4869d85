package memsys

import (
	"math"
	"testing"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/topology"
)

// fixedStream issues the given accesses round-robin every cycle.
type fixedStream struct {
	accesses []Access
	i        int
}

func (f *fixedStream) Next(*sim.RNG) (Access, bool) {
	a := f.accesses[f.i%len(f.accesses)]
	f.i++
	return a, true
}

// onceStream issues each access exactly once, then goes idle.
type onceStream struct {
	accesses []Access
	i        int
}

func (o *onceStream) Next(*sim.RNG) (Access, bool) {
	if o.i >= len(o.accesses) {
		return Access{}, false
	}
	a := o.accesses[o.i]
	o.i++
	return a, true
}

// idleInjector records injections and can deliver them instantly back.
type recordingNet struct {
	sys      *System
	inflight []*msg.Packet
	count    int
}

func (r *recordingNet) inject(node int, p *msg.Packet, now int64) {
	r.count++
	r.inflight = append(r.inflight, p)
}

// deliverAll hands every in-flight packet to the system as ejected.
func (r *recordingNet) deliverAll(now int64) {
	batch := r.inflight
	r.inflight = nil
	for _, p := range batch {
		r.sys.HandleEject(p, now)
	}
}

func quadSys(streams []AddressStream, cfg SystemConfig) (*System, *recordingNet) {
	regs := region.Quadrants(topology.NewMesh(8, 8))
	rn := &recordingNet{}
	sys := New(cfg, regs, streams, 1, rn.inject)
	rn.sys = sys
	return sys, rn
}

func nilStreams() []AddressStream { return make([]AddressStream, 64) }

func TestHomeBankRegionAffinity(t *testing.T) {
	sys, _ := quadSys(nilStreams(), DefaultSystemConfig())
	regs := region.Quadrants(topology.NewMesh(8, 8))
	in, out := 0, 0
	const blocks = 20000
	for b := 0; b < blocks; b++ {
		home := sys.HomeBank(0, uint64(b)*64)
		if regs.AppAt(home) == 0 {
			in++
		} else {
			out++
		}
	}
	frac := float64(out) / blocks
	// SharedFrac 0.10 sends 10% anywhere; 3/4 of those land outside.
	want := 0.10 * 0.75
	if math.Abs(frac-want) > 0.02 {
		t.Fatalf("out-of-region home fraction %v, want ≈%v", frac, want)
	}
}

func TestHomeBankDeterministic(t *testing.T) {
	sys, _ := quadSys(nilStreams(), DefaultSystemConfig())
	for b := uint64(0); b < 100; b++ {
		if sys.HomeBank(1, b*64) != sys.HomeBank(1, b*64) {
			t.Fatal("home bank not deterministic")
		}
		// Same block, different byte offset: same home.
		if sys.HomeBank(1, b*64) != sys.HomeBank(1, b*64+63) {
			t.Fatal("home bank must be block-granular")
		}
	}
}

func TestHomeBankUnassignedApp(t *testing.T) {
	sys, _ := quadSys(nilStreams(), DefaultSystemConfig())
	for b := uint64(0); b < 100; b++ {
		h := sys.HomeBank(region.Unassigned, b*64)
		if h < 0 || h >= 64 {
			t.Fatalf("home %d out of range", h)
		}
	}
}

func TestNearestMC(t *testing.T) {
	sys, _ := quadSys(nilStreams(), DefaultSystemConfig())
	mesh := topology.NewMesh(8, 8)
	// Node (1,1) is nearest the NW corner (node 0).
	if mc := sys.nearestMC(mesh.ID(topology.Coord{X: 1, Y: 1})); mc != 0 {
		t.Fatalf("nearest MC = %d", mc)
	}
	if mc := sys.nearestMC(mesh.ID(topology.Coord{X: 6, Y: 6})); mc != 63 {
		t.Fatalf("nearest MC = %d", mc)
	}
}

func TestMissProducesRequestAndReply(t *testing.T) {
	streams := nilStreams()
	streams[9] = &fixedStream{accesses: []Access{{Addr: 0x123440}}}
	cfg := DefaultSystemConfig()
	cfg.SharedFrac = 0
	sys, rn := quadSys(streams, cfg)

	sys.Tick(0)
	if rn.count != 1 {
		t.Fatalf("expected 1 request, got %d", rn.count)
	}
	req := rn.inflight[0]
	if req.Class != msg.ClassRequest || req.Size != 1 || req.Src != 9 || req.App != 0 {
		t.Fatalf("bad request %+v", req)
	}
	if sys.Outstanding() != 1 {
		t.Fatal("MSHR not allocated")
	}

	// Deliver the request at the bank (cold L2 -> MC request after L2
	// latency).
	rn.deliverAll(1)
	for c := int64(2); c < 10; c++ {
		sys.Tick(c)
	}
	if len(rn.inflight) != 1 {
		t.Fatalf("expected MC request, inflight=%d", len(rn.inflight))
	}
	mcReq := rn.inflight[0]
	if mcReq.Class != msg.ClassRequest || mcReq.Dst != 0 { // node 9 region: NW corner MC
		t.Fatalf("bad MC request %+v", mcReq)
	}
	rn.deliverAll(10)
	// Data reply after memory latency.
	var data *msg.Packet
	for c := int64(11); c < 11+200; c++ {
		sys.Tick(c)
		if len(rn.inflight) > 0 {
			data = rn.inflight[0]
			break
		}
	}
	if data == nil || data.Class != msg.ClassResponse || data.Size != 5 || data.Dst != 9 {
		t.Fatalf("bad data reply %+v", data)
	}
	rn.deliverAll(150)
	if sys.Outstanding() != 0 {
		t.Fatal("MSHR not released")
	}
	st := sys.Snapshot()
	if st.L2Misses != 1 || st.CompletedMisses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestL2HitSkipsMemory(t *testing.T) {
	streams := nilStreams()
	streams[9] = &onceStream{accesses: []Access{{Addr: 0x40}}}
	cfg := DefaultSystemConfig()
	cfg.SharedFrac = 0
	sys, rn := quadSys(streams, cfg)
	// Warm the home bank with the first block.
	home := sys.HomeBank(0, 0x40)
	sys.banks[home].Access(0x40)

	sys.Tick(0)
	rn.deliverAll(1)
	// L2 hit: data reply directly, no MC traffic.
	var reply *msg.Packet
	for c := int64(2); c < 20; c++ {
		sys.Tick(c)
		if len(rn.inflight) > 0 {
			reply = rn.inflight[0]
			rn.inflight = nil
			break
		}
	}
	if reply == nil || reply.Class != msg.ClassResponse || reply.Src != home {
		t.Fatalf("bad L2 hit reply %+v", reply)
	}
	if st := sys.Snapshot(); st.L2Hits != 1 || st.L2Misses != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	streams := nilStreams()
	// Every access misses (huge stride).
	accs := make([]Access, 64)
	for i := range accs {
		accs[i] = Access{Addr: uint64(i) << 20}
	}
	streams[5] = &fixedStream{accesses: accs}
	cfg := DefaultSystemConfig()
	cfg.MSHRs = 4
	sys, rn := quadSys(streams, cfg)
	for c := int64(0); c < 20; c++ {
		sys.Tick(c)
	}
	if sys.Outstanding() != 4 {
		t.Fatalf("outstanding = %d, want MSHR limit 4", sys.Outstanding())
	}
	if rn.count != 4 {
		t.Fatalf("injected %d requests, want 4", rn.count)
	}
	if sys.Snapshot().StalledCoreCycles == 0 {
		t.Fatal("no stall cycles recorded")
	}
}

func TestMSHRMerge(t *testing.T) {
	streams := nilStreams()
	streams[5] = &fixedStream{accesses: []Access{{Addr: 0x1000}, {Addr: 0x1008}}}
	sys, rn := quadSys(streams, DefaultSystemConfig())
	sys.Tick(0)
	sys.Tick(1) // same block: L1 hit? No - first access allocated it in L1.
	// The second access hits L1 (same block was allocated on miss), so
	// only one request goes out either way; force distinct L1 sets but
	// same L2 block is impossible — instead verify merge via counters.
	if rn.count != 1 {
		t.Fatalf("injected %d, want 1", rn.count)
	}
}

func TestHandleEjectIgnoresForeignPackets(t *testing.T) {
	sys, _ := quadSys(nilStreams(), DefaultSystemConfig())
	// Adversarial packet without memsys payload must be ignored.
	sys.HandleEject(&msg.Packet{ID: 1, App: 9, Src: 0, Dst: 5}, 10)
	if st := sys.Snapshot(); st.L2Hits+st.L2Misses != 0 {
		t.Fatal("foreign packet touched the caches")
	}
}

func TestStreamCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	regs := region.Quadrants(topology.NewMesh(8, 8))
	New(DefaultSystemConfig(), regs, make([]AddressStream, 3), 1, nil)
}

// loopNet stands in for the network: it hands every injected packet back
// to the system delay cycles later.
type loopNet struct {
	sys   *System
	slots [][]*msg.Packet
	delay int64
}

func (l *loopNet) inject(_ int, p *msg.Packet, now int64) {
	i := (now + l.delay) % int64(len(l.slots))
	l.slots[i] = append(l.slots[i], p)
}

// cycle ticks the system, then ejects the packets due this cycle.
func (l *loopNet) cycle(now int64) {
	l.sys.Tick(now)
	i := now % int64(len(l.slots))
	for _, p := range l.slots[i] {
		l.sys.HandleEject(p, now)
	}
	l.slots[i] = l.slots[i][:0]
}

// Once warm, the closed loop allocates nothing: every core streams over
// 384 blocks that all fall in one L1 and one L2 set (L1 misses, some L2
// misses, MSHR stalls), returns to each block after two others have
// evicted it from the 2-way L1 (MSHR merges) and writes every other access
// (invalidations and acks), yet Tick and HandleEject only recycle messages,
// wheel slots and MSHR entries.
func TestSystemSteadyStateAllocs(t *testing.T) {
	accs := make([]Access, 512)
	for i := range accs {
		block := i - i%4 + []int{0, 1, 2, 0}[i%4] // x, x+1, x+2, x
		accs[i] = Access{Addr: uint64(block) << 14, Write: i%2 == 1}
	}
	streams := nilStreams()
	for n := range streams {
		streams[n] = &fixedStream{accesses: accs, i: n * 37}
	}
	net := &loopNet{slots: make([][]*msg.Packet, 32), delay: 20}
	net.sys = New(DefaultSystemConfig(), region.Quadrants(topology.NewMesh(8, 8)), streams, 1, net.inject)
	net.sys.Prewarm(2000)
	now := int64(0)
	run := func() {
		for end := now + 200; now < end; now++ {
			net.cycle(now)
		}
	}
	for range 150 { // until the messages in flight stop setting records
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("%v allocations per 200 cycles", allocs)
	}
	st := net.sys.Snapshot()
	if st.L2Misses == 0 || st.InvAcksReceived == 0 || st.StalledCoreCycles == 0 || st.MSHRMerges == 0 {
		t.Fatalf("loop did not exercise the protocol: %+v", st)
	}
}

// The wheel holds a delay longer than the default latencies: with a
// 300-cycle memory the reply to an MC request injects exactly 300 cycles
// after the request ejects, and a second delivery of the same packet is
// ignored rather than recycling its message twice.
func TestWheelDelaysMemoryReply(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.MemLatency = 300
	sys, rn := quadSys(nilStreams(), cfg)
	if len(sys.wheel) != 512 {
		t.Fatalf("wheel of %d slots for a 300-cycle delay", len(sys.wheel))
	}
	req := packet(0, 9, 0, payload{kind: mcRequest, addr: 0x40, core: 9})
	m := req.Payload.(*message)
	sys.HandleEject(req, 10)
	sys.HandleEject(req, 10)
	at := int64(-1)
	for c := int64(11); c <= 700; c++ {
		sys.Tick(c)
		if at < 0 && len(rn.inflight) > 0 {
			at = c
		}
	}
	if at != 310 || rn.count != 1 {
		t.Fatalf("reply at cycle %d, %d injections; want one at 310", at, rn.count)
	}
	if reply := rn.inflight[0]; kindOf(reply) != dataReply || reply.Src != 0 || reply.Dst != 9 {
		t.Fatalf("bad reply %+v", reply)
	}
	if sys.free != m || m.next != nil {
		t.Fatal("free list is not the request's message once")
	}
}
