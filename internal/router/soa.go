package router

import (
	"rair/internal/arbiter"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/topology"
)

// SoA is a struct-of-arrays state store shared by a contiguous range of
// routers and NIs — one per tick-engine shard. The per-component structs
// (Router, NI) are index-based views into it: their ports and VC state are
// carved out of the dense slabs below, and the per-cycle activity/occupancy
// registers live in flat arrays so the engine's armed-component sweep and
// the telemetry occupancy sample are linear passes over contiguous memory
// instead of pointer chases through component objects.
//
// Indexing is by local index li in [0, N): component li owns
// Ins[li*NumDirs:(li+1)*NumDirs], its VC slabs, and element li of every flat
// array. The store itself performs no synchronization: exactly one shard owns
// it, and the engine's barrier phases serialize all access.
type SoA struct {
	// Work[li] mirrors router li's pipeline population (rcCount+vaCount+
	// activeCount plus its occupied ST registers); NIWork[li] mirrors NI
	// li's (queued+streaming+draining). The engine skips any component
	// whose entry is zero, and the invariant checker audits the mirrors
	// against the component counters.
	Work   []int32
	NIWork []int32

	// ArmedR/ArmedN are the wake bitmaps: bit li set iff Work[li] > 0
	// (resp. NIWork[li] > 0). Flit arrival and injection set bits; the
	// engine clears a bit once the component's work counter reaches zero
	// after a tick.
	ArmedR []uint64
	ArmedN []uint64

	// DPA occupancy registers, per router.
	NativeOcc  []int32
	ForeignOcc []int32

	// Dense component slabs.
	Ins    []InputPort
	Outs   []OutputPort
	inVCs  []inputVC
	outVCs []outputVC

	// classWindow[c] masks the VC indices of message class c; escapeMask,
	// globalMask and regionalMask partition the VC indices by kind. They
	// pre-compute the VA_in and NI free-VC search windows (a free-VC choice
	// is a preference-ordered sequence of mask intersections instead of a
	// per-candidate loop) and depend on the configuration alone, so every
	// router and NI of the store reads this one copy.
	classWindow  []vcMask
	escapeMask   vcMask
	globalMask   vcMask
	regionalMask vcMask

	// vaArb holds every router's VA_out arbiters (round-robin pointers
	// persist across ticks), NumDirs×VCs per router.
	vaArb []arbiter.Prioritized

	// Arbitration scratch, one copy for the whole shard: the engine ticks a
	// shard's routers one at a time and Router.Tick leaves every request row
	// all-clear (TestSharedScratchHygiene), so the rows stay cache-resident
	// instead of costing each router a copy. vaReq holds one request bitset
	// per output VC, ⌈NumDirs×VCs/64⌉ words each, over the input VCs; vaPrio
	// holds one VA priority per input VC (each files at most one request a
	// tick). vaReqN counts the requests filed per output VC and vaSingle
	// names the lone requestor when that is 1 (VA_out then skips the
	// arbiter scan); vaTouched lists the output VCs requested this tick.
	// dirBuf carries a route's candidates to the selection function (a stack
	// array would escape through the interface call). saPrio is one input
	// port's SA_in priorities, saOutPri the SA_out priorities of the output
	// port under arbitration; their request sets are masks in registers.
	// Rank and Age alone read the priority rows: under the other rules
	// vaNative marks the native requestors of this tick's rows (bits of
	// input VCs that filed no request are stale and never read), vaCls is
	// each requested output VC's kind, and vaFavored receives a row
	// narrowed to its favored class.
	vaReq, vaNative  []uint64
	vaFavored        []uint64
	vaCls            []policy.VCClass
	vaPrio, saPrio   []int
	vaReqN, vaSingle []int
	vaTouched        []int
	dirBuf           [2]topology.Dir
	saOutPri         [topology.NumDirs]int
}

// NewSoA returns a store for n routers/NIs sharing one configuration.
func NewSoA(cfg Config, n int) *SoA {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	v := cfg.VCsPerPort()
	nd := int(topology.NumDirs)
	words := (n + 63) / 64
	s := &SoA{
		Work:        make([]int32, n),
		NIWork:      make([]int32, n),
		ArmedR:      make([]uint64, words),
		ArmedN:      make([]uint64, words),
		NativeOcc:   make([]int32, n),
		ForeignOcc:  make([]int32, n),
		Ins:         make([]InputPort, n*nd),
		Outs:        make([]OutputPort, n*nd),
		inVCs:       make([]inputVC, n*nd*v),
		outVCs:      make([]outputVC, n*nd*v),
		classWindow: make([]vcMask, cfg.Classes),
		vaArb:       make([]arbiter.Prioritized, n*nd*v),
		vaReq:       make([]uint64, nd*v*((nd*v+63)>>6)),
		vaNative:    make([]uint64, (nd*v+63)>>6),
		vaFavored:   make([]uint64, (nd*v+63)>>6),
		vaPrio:      make([]int, nd*v),
		vaCls:       make([]policy.VCClass, nd*v),
		vaReqN:      make([]int, nd*v),
		vaSingle:    make([]int, nd*v),
		vaTouched:   make([]int, 0, nd*v),
		saPrio:      make([]int, v),
	}
	for c := range s.classWindow {
		s.classWindow[c] = allVCs(cfg.VCsPerClass()) << uint(cfg.ClassBase(msg.Class(c)))
	}
	for i := 0; i < v; i++ {
		switch cfg.KindOf(i) {
		case policy.VCEscape:
			s.escapeMask |= 1 << uint(i)
		case policy.VCGlobal:
			s.globalMask |= 1 << uint(i)
		default:
			s.regionalMask |= 1 << uint(i)
		}
	}
	for i := range s.vaArb {
		s.vaArb[i] = arbiter.NewPrioritized(nd * v)
	}
	for li := 0; li < n; li++ {
		for d := 0; d < nd; d++ {
			p := li*nd + d
			ivcs := s.inVCs[p*v : (p+1)*v : (p+1)*v]
			for i := range ivcs {
				ivcs[i] = inputVC{idx: uint8(i)}
			}
			s.Ins[p] = InputPort{dir: topology.Dir(d), vcs: ivcs}
			ovcs := s.outVCs[p*v : (p+1)*v : (p+1)*v]
			for i := range ovcs {
				ovcs[i] = outputVC{credits: int32(cfg.Depth)}
			}
			s.Outs[p] = OutputPort{
				dir: topology.Dir(d), ejection: topology.Dir(d) == topology.Local,
				vcs: ovcs, creditSum: int32(v * cfg.Depth),
				freeMask: allVCs(v), creditMask: allVCs(v), fullMask: allVCs(v),
			}
		}
	}
	return s
}

// armR marks router li armed (its Work just became nonzero).
func (s *SoA) armR(li int) { s.ArmedR[uint(li)>>6] |= 1 << (uint(li) & 63) }

// armN marks NI li armed.
func (s *SoA) armN(li int) { s.ArmedN[uint(li)>>6] |= 1 << (uint(li) & 63) }

// ArmedRouter reports whether router li's wake bit is set (audit hook).
func (s *SoA) ArmedRouter(li int) bool { return s.ArmedR[uint(li)>>6]>>(uint(li)&63)&1 == 1 }

// ArmedNI reports whether NI li's wake bit is set (audit hook).
func (s *SoA) ArmedNI(li int) bool { return s.ArmedN[uint(li)>>6]>>(uint(li)&63)&1 == 1 }
