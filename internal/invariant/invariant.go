// Package invariant is the opt-in runtime checker for the NoC pipeline: at
// tick barriers it audits the wired network read-only and validates the
// correctness properties the router model promises by construction —
//
//   - global flit conservation: every flit an NI pushed into the network is
//     either still inside (a router buffer, an ST register, a link wire) or
//     consumed by its destination NI;
//   - per-link credit/buffer accounting: for every (link, VC), sender
//     credits + flits holding a credit (ST register, wire, receiver buffer)
//   - credits returning on the wire sum exactly to the buffer depth;
//   - atomic VC allocation: an unowned input VC is empty and idle, every
//     buffered flit belongs to the VC's owner, an unowned output VC holds
//     its full credit stock, and the per-port allocation counters agree
//     with the owners visible in the VC state;
//   - monotone hop progress: a packet's hop count never decreases between
//     observations and never exceeds the configured bound;
//   - forward progress: a no-ejection watchdog trips when traffic is in
//     flight but nothing reaches any NI for a configured window, dumping
//     the pipeline state of the routers holding packets (and the telemetry
//     counter totals when a collector is attached).
//
// The checker never mutates simulation state and keeps its own bookkeeping
// out of the simulation's, so enabling it cannot change results: runs with
// the checker on and off are bit-identical (asserted by the determinism
// test matrix in internal/network).
package invariant

import (
	"encoding/json"
	"fmt"
	"strings"

	"rair/internal/msg"
	"rair/internal/router"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// Mode selects how violations surface.
type Mode int

const (
	// ModePanic stops the simulation on the first violation (default):
	// invariants are definitions of correctness, and continuing past a
	// break only obscures the root cause.
	ModePanic Mode = iota
	// ModeCollect records violations (up to Config.Limit) and lets the run
	// continue; Err surfaces them afterwards. Tests asserting that a seeded
	// bug is caught use this mode.
	ModeCollect
)

// Config parameterizes a Checker.
type Config struct {
	// Every is the checking period in cycles (default 1: every barrier).
	Every int64
	// Watchdog is the no-forward-progress window in cycles: if packets are
	// in flight but no flit reaches any NI for Watchdog cycles, the
	// deadlock watchdog trips. 0 picks the default (10000); negative
	// disables the watchdog.
	Watchdog int64
	// MaxHops bounds any packet's hop count; 0 derives a bound from the
	// mesh (2*(W+H)+8, generous for minimal routing with escape detours).
	MaxHops int
	// Mode selects panic-on-first versus collect (default ModePanic).
	Mode Mode
	// Limit caps collected violations in ModeCollect (default 64).
	Limit int
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 1
	}
	if c.Watchdog == 0 {
		c.Watchdog = 10000
	}
	if c.Limit <= 0 {
		c.Limit = 64
	}
	return c
}

// Target is the audited network: the network package assembles it while
// wiring and hands it to NewChecker.
type Target struct {
	Depth   int
	VCs     int
	Mesh    *topology.Mesh
	Routers []*router.Router
	NIs     []*router.NI
	// Links is the network's wiring table, one record per link. The
	// network keeps no copy: the checker is its only holder after the build.
	Links []router.LinkRecord
	// Telemetry, when attached, is snapshotted into the watchdog dump.
	Telemetry *telemetry.Collector
	// Quiesce, when non-nil, audits the tick engine's quiescence machinery
	// (wake bitmaps, work mirrors, dirty-wire bitmaps) against ground
	// truth: anything skipped must truly be idle.
	Quiesce func() error
}

// Violation is one failed check.
type Violation struct {
	Cycle int64
	Check string
	Msg   string
}

func (v Violation) Error() string {
	return fmt.Sprintf("invariant: cycle %d: %s: %s", v.Cycle, v.Check, v.Msg)
}

// Checker audits a Target at tick barriers. It must be driven from the
// coordinating goroutine only.
type Checker struct {
	cfg Config
	t   Target

	// hops and hopsPrev alternate between checks: observations of packets
	// currently owning input VCs, compared against the previous sweep.
	// Keyed by {application, packet id}: each traffic source numbers its
	// packets from 1 and owns its application ids.
	hops, hopsPrev map[[2]uint64]int

	// Watchdog state: the last flit-ejection total and the cycle it last
	// advanced.
	lastEjected  int64
	lastProgress int64
	tripped      bool

	violations []Violation

	// scratch per-VC tallies reused across links.
	wireFlits, wireCreds, stHold, recvBuf, sendCred []int
}

// NewChecker builds a checker over t with cfg's zero fields defaulted.
func NewChecker(cfg Config, t Target) *Checker {
	cfg = cfg.withDefaults()
	if cfg.MaxHops == 0 {
		cfg.MaxHops = 2*(t.Mesh.W+t.Mesh.H) + 8
	}
	return &Checker{
		cfg: cfg, t: t,
		hops: make(map[[2]uint64]int), hopsPrev: make(map[[2]uint64]int),
		wireFlits: make([]int, t.VCs), wireCreds: make([]int, t.VCs),
		stHold: make([]int, t.VCs), recvBuf: make([]int, t.VCs),
		sendCred: make([]int, t.VCs),
	}
}

// Links returns the wiring table the checker audits, the one the network
// was built and its engine bound with.
func (c *Checker) Links() []router.LinkRecord { return c.t.Links }

// Err summarizes recorded violations as an error, nil when the run was
// clean.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", len(c.violations))
	for i, v := range c.violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(c.violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v.Error())
	}
	return fmt.Errorf("%s", b.String())
}

func (c *Checker) report(now int64, check, format string, args ...any) {
	v := Violation{Cycle: now, Check: check, Msg: fmt.Sprintf(format, args...)}
	if c.cfg.Mode == ModePanic {
		panic(v.Error())
	}
	if len(c.violations) < c.cfg.Limit {
		c.violations = append(c.violations, v)
	}
}

// Check runs every due audit for the barrier at cycle now. It panics on a
// violation in ModePanic and records it in ModeCollect.
func (c *Checker) Check(now int64) {
	if (now+1)%c.cfg.Every == 0 {
		c.checkConservation(now)
		c.checkCredits(now)
		c.checkAllocation(now)
		c.checkHops(now)
		c.checkQuiescence(now)
	}
	if c.cfg.Watchdog > 0 {
		c.checkProgress(now)
	}
}

// checkQuiescence delegates to the target's engine-level quiescence audit.
func (c *Checker) checkQuiescence(now int64) {
	if c.t.Quiesce == nil {
		return
	}
	if err := c.t.Quiesce(); err != nil {
		c.report(now, "quiescence", "%v", err)
	}
}

// checkConservation validates the global flit identity: NI-injected flits
// equal NI-consumed flits plus everything still inside the network.
func (c *Checker) checkConservation(now int64) {
	var injected, consumed int64
	for _, ni := range c.t.NIs {
		injected += ni.FlitsOut()
		consumed += ni.FlitsIn()
	}
	var inside int64
	for _, r := range c.t.Routers {
		inside += int64(r.BufferedFlits())
	}
	for _, ref := range c.t.Links {
		inside += int64(ref.L.InFlightFlits())
	}
	if injected != consumed+inside {
		c.report(now, "conservation",
			"injected %d != consumed %d + inside %d", injected, consumed, inside)
	}
}

// checkCredits validates the per-(link,VC) credit identity. Ejection links
// carry no credits (the NI sink accepts unconditionally) and are skipped.
func (c *Checker) checkCredits(now int64) {
	for _, ref := range c.t.Links {
		if ref.Dst.NI {
			continue
		}
		for vc := 0; vc < c.t.VCs; vc++ {
			c.wireFlits[vc], c.wireCreds[vc], c.stHold[vc], c.recvBuf[vc], c.sendCred[vc] = 0, 0, 0, 0, 0
		}
		ref.L.AuditFlits(func(f msg.Flit) { c.wireFlits[f.VC]++ })
		ref.L.AuditCredits(func(vc int) { c.wireCreds[vc]++ })
		if ref.Src.NI {
			ni := c.t.NIs[ref.Src.Node]
			for vc := 0; vc < c.t.VCs; vc++ {
				c.sendCred[vc] = ni.CreditCount(vc)
			}
		} else {
			sr := c.t.Routers[ref.Src.Node]
			sr.AuditOutputVCs(ref.Src.Dir, func(s router.OutputVCState) { c.sendCred[s.VC] = s.Credits })
			if f, ok := sr.STRegister(ref.Src.Dir); ok {
				c.stHold[f.VC]++
			}
		}
		c.t.Routers[ref.Dst.Node].AuditInputVCs(ref.Dst.Dir, func(s router.InputVCState) {
			c.recvBuf[s.VC] = s.Buffered
		})
		for vc := 0; vc < c.t.VCs; vc++ {
			sum := c.sendCred[vc] + c.stHold[vc] + c.wireFlits[vc] + c.recvBuf[vc] + c.wireCreds[vc]
			if sum != c.t.Depth {
				c.report(now, "credit-accounting",
					"link %s vc %d: sum %d != depth %d (sender credits %d, st %d, wire flits %d, receiver buffered %d, wire credits %d)",
					ref.Key(), vc, sum, c.t.Depth,
					c.sendCred[vc], c.stHold[vc], c.wireFlits[vc], c.recvBuf[vc], c.wireCreds[vc])
			}
		}
	}
}

// checkAllocation validates atomic VC allocation at every router, and the
// native masks arbitration reads against the VCs' owners and OVC_n.
func (c *Checker) checkAllocation(now int64) {
	for _, r := range c.t.Routers {
		node, app, natives := r.Node(), r.App(), 0
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			r.AuditInputVCs(d, func(s router.InputVCState) {
				if want := s.Owner != nil && app >= 0 && s.Owner.App == app; s.Native != want {
					c.report(now, "native-mask",
						"router %d input %s vc %d native bit %v, owner %v of app %d here", node, d, s.VC, s.Native, s.Owner, app)
				}
				if s.Native {
					natives++
				}
				if s.Owner == nil {
					if s.Allocated || s.Buffered != 0 {
						c.report(now, "vc-alloc",
							"router %d input %s vc %d unowned but allocated=%v buffered=%d",
							node, d, s.VC, s.Allocated, s.Buffered)
					}
					return
				}
				owner, vc := s.Owner, s.VC
				r.AuditInputFlits(d, vc, func(f msg.Flit) {
					if f.Pkt != owner {
						c.report(now, "vc-alloc",
							"router %d input %s vc %d owned by packet %d buffers flit of packet %d",
							node, d, vc, owner.ID, f.Pkt.ID)
					}
				})
			})
			owners := 0
			r.AuditOutputVCs(d, func(s router.OutputVCState) {
				if s.Owner != nil {
					owners++
					return
				}
				if s.Credits != c.t.Depth {
					c.report(now, "vc-alloc",
						"router %d output %s vc %d unallocated but credits %d != depth %d",
						node, d, s.VC, s.Credits, c.t.Depth)
				}
				if s.TailSent {
					c.report(now, "vc-alloc",
						"router %d output %s vc %d unallocated with tailSent", node, d, s.VC)
				}
			})
			if got := r.OutputAllocated(d); got != owners {
				c.report(now, "vc-alloc",
					"router %d output %s allocation counter %d != owned VCs %d", node, d, got, owners)
			}
		}
		if ovcN, _ := r.OccupancyByKind(); ovcN != natives {
			c.report(now, "native-mask", "router %d OVC_n %d != %d native mask bits", node, ovcN, natives)
		}
	}
}

// checkHops validates monotone, bounded per-packet hop progress over the
// packets currently owning input VCs.
func (c *Checker) checkHops(now int64) {
	cur := c.hops
	for k := range cur {
		delete(cur, k)
	}
	for _, r := range c.t.Routers {
		node := r.Node()
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			r.AuditInputVCs(d, func(s router.InputVCState) {
				if s.Owner == nil {
					return
				}
				h, key := s.Owner.Hops, [2]uint64{uint64(s.Owner.App), s.Owner.ID}
				if h > c.cfg.MaxHops {
					c.report(now, "hop-progress",
						"packet %d at router %d input %s vc %d has %d hops > bound %d",
						s.Owner.ID, node, d, s.VC, h, c.cfg.MaxHops)
				}
				if prev, ok := c.hopsPrev[key]; ok && h < prev {
					c.report(now, "hop-progress",
						"packet %d at router %d input %s vc %d hop count went backwards: %d -> %d",
						s.Owner.ID, node, d, s.VC, prev, h)
				}
				if seen, ok := cur[key]; !ok || h > seen {
					cur[key] = h
				}
			})
		}
	}
	c.hops, c.hopsPrev = c.hopsPrev, cur
}

// checkProgress is the deadlock watchdog: flit ejections must advance while
// packets are in flight.
func (c *Checker) checkProgress(now int64) {
	var consumed, created, ejected int64
	for _, ni := range c.t.NIs {
		consumed += ni.FlitsIn()
		created += ni.Created()
		ejected += ni.Ejected()
	}
	if consumed != c.lastEjected {
		c.lastEjected = consumed
		c.lastProgress = now
		return
	}
	if created == ejected || c.tripped {
		c.lastProgress = now
		return
	}
	if now-c.lastProgress <= c.cfg.Watchdog {
		return
	}
	c.tripped = true
	c.report(now, "watchdog",
		"no flit ejected for %d cycles with %d packet(s) in flight\n%s",
		now-c.lastProgress, created-ejected, c.dump())
}

// dump renders the pipeline state of routers holding packets (bounded) plus
// the telemetry counter totals when a collector is attached.
func (c *Checker) dump() string {
	var b strings.Builder
	shown := 0
	for _, r := range c.t.Routers {
		if r.OldestOwner() == nil {
			continue
		}
		if shown == 8 {
			b.WriteString("... further stuck routers elided\n")
			break
		}
		b.WriteString(r.DebugState())
		shown++
	}
	if c.t.Telemetry != nil {
		if js, err := json.Marshal(c.t.Telemetry.Totals()); err == nil {
			fmt.Fprintf(&b, "telemetry totals: %s\n", js)
		}
	}
	return b.String()
}
