// Package router implements the cycle-accurate virtual-channel wormhole
// router modeled in the paper (Figure 5): a canonical pipeline of routing
// computation (RC), VC allocation (VA, split into the contention-free
// VA input step and the policy-controlled VA output step), switch
// allocation (SA input and SA output, both policy-controlled under MSP),
// switch traversal (ST) and link traversal (LT), with credit-based flow
// control and atomic VC allocation.
//
// The interference-reduction policy (round-robin, STC-style ranking, or
// RAIR) is given as a policy.Spec, from which each router builds its own
// policy.Policy; the routing algorithm and its selection function come
// from the routing package. The router itself knows nothing about which
// policy it runs — it only supplies the requesting packets and VC class
// tags.
package router

import (
	"fmt"

	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/sim"
)

// Config fixes the router microarchitecture parameters. The defaults follow
// Table 1 of the paper: 4 VCs per protocol class (atomic), 5 flits per VC,
// 128-bit links (one flit per cycle).
type Config struct {
	// Classes is the number of protocol message classes; each class has
	// its own disjoint VC set (protocol-level deadlock freedom).
	Classes int
	// AdaptiveVCs is the number of freely-routed VCs per class. Under
	// RAIR's VC regionalization these are split into global and regional
	// VCs; region-oblivious policies simply ignore the tags.
	AdaptiveVCs int
	// GlobalVCs is how many of the AdaptiveVCs are tagged global. The
	// paper configures regional and global VCs "roughly the same"
	// (Section VI); default is half.
	GlobalVCs int
	// EscapeVCs is the number of Duato escape VCs per class (XY-routed).
	EscapeVCs int
	// Depth is the flit capacity of each VC buffer.
	Depth int
	// LinkLatency is the flit delay of every link in cycles. The default
	// of 2 models ST→LT pipelining so that the zero-load per-hop latency
	// is the canonical 5 cycles (RC, VA, SA, ST, LT).
	LinkLatency int
	// Injectors is the number of injection slots the NI multiplexes onto
	// the local port, each with its own per-class source queues. Zero means
	// 1; a chiplet network adds a slot for crossbar re-injection.
	Injectors int
}

// DefaultConfig returns the Table 1 configuration for the given number of
// message classes: 4 adaptive VCs (2 global / 2 regional) + 1 escape VC per
// class, 5-flit buffers.
func DefaultConfig(classes int) Config {
	return Config{
		Classes:     classes,
		AdaptiveVCs: 4,
		GlobalVCs:   2,
		EscapeVCs:   1,
		Depth:       5,
		LinkLatency: 2,
	}
}

// maxSlots caps Depth and LinkLatency: every VC buffer and every link
// allocates its slots up front, so an unbounded value from a simulation
// file would exhaust memory instead of failing. Table 1 uses 5 and 2.
const maxSlots = sim.MaxLatency

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Classes < 1:
		return fmt.Errorf("router: need at least one message class")
	case c.AdaptiveVCs < 1:
		return fmt.Errorf("router: need at least one adaptive VC per class")
	case c.GlobalVCs < 0 || c.GlobalVCs > c.AdaptiveVCs:
		return fmt.Errorf("router: GlobalVCs %d outside [0,%d]", c.GlobalVCs, c.AdaptiveVCs)
	case c.EscapeVCs < 1:
		return fmt.Errorf("router: need at least one escape VC per class for deadlock freedom")
	case c.Depth < 1 || c.Depth > maxSlots:
		return fmt.Errorf("router: VC depth %d outside [1,%d]", c.Depth, maxSlots)
	case c.LinkLatency < 1 || c.LinkLatency > maxSlots:
		return fmt.Errorf("router: link latency %d outside [1,%d]", c.LinkLatency, maxSlots)
	case c.Injectors < 0:
		return fmt.Errorf("router: Injectors must be >= 0 (0 means 1)")
	case c.VCsPerPort() > 64:
		// The datapath tracks per-port VC occupancy in single-word bitmasks.
		return fmt.Errorf("router: %d VCs per port exceeds the bitmask limit of 64", c.VCsPerPort())
	}
	return nil
}

// InjectorCount reports the effective number of NI injection slots,
// treating the zero value as one.
func (c Config) InjectorCount() int {
	if c.Injectors < 1 {
		return 1
	}
	return c.Injectors
}

// VCsPerClass reports the total VCs per message class.
func (c Config) VCsPerClass() int { return c.AdaptiveVCs + c.EscapeVCs }

// VCsPerPort reports the total VCs per port across all classes.
func (c Config) VCsPerPort() int { return c.Classes * c.VCsPerClass() }

// KindOf returns the RAIR VC classification of a VC index. Within each
// class the layout is [escape... | global... | regional...].
func (c Config) KindOf(vc int) policy.VCClass {
	c.checkVC(vc)
	off := vc % c.VCsPerClass()
	switch {
	case off < c.EscapeVCs:
		return policy.VCEscape
	case off < c.EscapeVCs+c.GlobalVCs:
		return policy.VCGlobal
	default:
		return policy.VCRegional
	}
}

// ClassBase returns the first VC index of a message class.
func (c Config) ClassBase(cl msg.Class) int { return int(cl) * c.VCsPerClass() }

func (c Config) checkVC(vc int) {
	if vc < 0 || vc >= c.VCsPerPort() {
		panic(fmt.Sprintf("router: VC index %d out of range [0,%d)", vc, c.VCsPerPort()))
	}
}
