// Package core implements RAIR, the paper's region-aware interference
// reduction technique, as a router arbitration policy composed of its three
// mechanisms:
//
//   - VC regionalization: output VCs are tagged global or regional; foreign
//     traffic always outranks native traffic on global VCs, while the
//     priority on regional VCs follows the DPA state (Section IV.A).
//   - Multi-stage prioritization (MSP): the same native/foreign priority is
//     enforced at VA output arbitration and, unless configured VA-only, at
//     both SA arbitration steps (Section IV.B).
//   - Dynamic priority adaptation (DPA): per-router occupied-VC registers
//     for native (OVC_n) and foreign (OVC_f) traffic drive a hysteresis
//     state machine on the ratio r = OVC_f/OVC_n with band (1-Δ, 1+Δ);
//     native traffic is high priority only while foreign intensity exceeds
//     native intensity (Section IV.C, Figure 7). Priority computed in one
//     cycle is used in the next, keeping DPA off the critical path.
//
// Starvation freedom comes from DPA's negative feedback: a flow that
// accumulates VC occupancy loses priority (Section IV.D); see the network
// integration tests for the empirical check.
package core

import "rair/internal/policy"

// PriorityMode selects how the native/foreign priority on regional VCs and
// in the SA stage is determined.
type PriorityMode int

const (
	// ModeDPA adapts the priority dynamically (the full RAIR mechanism).
	ModeDPA PriorityMode = iota
	// ModeNativeHigh statically favors native traffic (the paper's
	// RAIR_NativeH ablation).
	ModeNativeHigh
	// ModeForeignHigh statically favors foreign traffic (RAIR_ForeignH).
	ModeForeignHigh
)

func (m PriorityMode) String() string {
	switch m {
	case ModeDPA:
		return "DPA"
	case ModeNativeHigh:
		return "NativeH"
	case ModeForeignHigh:
		return "ForeignH"
	}
	return "Mode(?)"
}

// Config parameterizes the RAIR policy, mostly for the paper's ablations.
type Config struct {
	// Mode selects DPA or the static ablation priorities. Default DPA.
	Mode PriorityMode
	// VAOnly restricts MSP to the VA stage (the RAIR_VA ablation of
	// Figure 9); SA arbitration falls back to round-robin.
	VAOnly bool
	// Delta is the DPA hysteresis width Δ; the paper observes 0.1-0.3
	// works well with the best value around 0.2 (the default).
	Delta float64
}

// DefaultDelta is the hysteresis width the paper settles on.
const DefaultDelta = 0.2

// RAIR is the per-router policy state.
type RAIR struct {
	cfg Config
	// nativeHigh is the DPA state: whether native traffic currently has
	// the high priority. The paper's default is foreign-high (global
	// traffic is typically more critical), so the state starts false.
	nativeHigh bool

	// Priority lookup tables (the policy.Tabular facet), rewritten on
	// every DPA state change: saTab by native, vaTab by [class][native].
	saTab [2]int8
	vaTab [3][2]int8
}

// New returns a RAIR policy instance for one router.
func New(cfg Config) *RAIR {
	if cfg.Delta == 0 {
		cfg.Delta = DefaultDelta
	}
	if cfg.Delta < 0 {
		panic("core: negative DPA hysteresis")
	}
	p := &RAIR{cfg: cfg}
	p.refreshTables()
	return p
}

// PriorityTables implements policy.Tabular: RAIR's priorities depend only
// on (native, class, DPA state), so they tabulate exactly.
func (p *RAIR) PriorityTables() (*[2]int8, *[3][2]int8) { return &p.saTab, &p.vaTab }

// refreshTables re-derives the lookup tables from the current DPA state.
// It must mirror VAOutPriority/SAPriority exactly; TestTablesMatchInterface
// cross-checks the two.
func (p *RAIR) refreshTables() {
	for nat := 0; nat < 2; nat++ {
		r := policy.Requestor{Native: nat == 1}
		p.saTab[nat] = int8(p.SAPriority(r, 0))
		for cls := 0; cls < 3; cls++ {
			p.vaTab[cls][nat] = int8(p.VAOutPriority(r, policy.VCClass(cls), 0))
		}
	}
}

// NewFactory returns a policy.Factory producing one RAIR instance per
// router (DPA state is per-router).
func NewFactory(cfg Config) policy.Factory {
	return func(node, app int) policy.Policy { return New(cfg) }
}

// NativeHigh exposes the current DPA state (for tests and ablation
// instrumentation).
func (p *RAIR) NativeHigh() bool {
	switch p.cfg.Mode {
	case ModeNativeHigh:
		return true
	case ModeForeignHigh:
		return false
	}
	return p.nativeHigh
}

// VAOutPriority implements policy.Policy: the VC regionalization rules.
// On global VCs foreign traffic always has priority; on regional VCs the
// DPA state decides; escape VCs stay fair (they are a deadlock-safety
// resource outside the regional/global classification).
func (p *RAIR) VAOutPriority(r policy.Requestor, cls policy.VCClass, _ int64) int {
	switch cls {
	case policy.VCGlobal:
		if !r.Native {
			return 1
		}
		return 0
	case policy.VCRegional:
		return p.priorityOf(r)
	}
	return 0
}

// SAPriority implements policy.Policy: MSP at SA_in/SA_out, using the same
// DPA-produced priority as VA for consistency across stages (Section IV.B).
func (p *RAIR) SAPriority(r policy.Requestor, _ int64) int {
	if p.cfg.VAOnly {
		return 0
	}
	return p.priorityOf(r)
}

func (p *RAIR) priorityOf(r policy.Requestor) int {
	if p.NativeHigh() == r.Native {
		return 1
	}
	return 0
}

// Update implements policy.Policy: the DPA hysteresis transition of
// Figure 7. The ratio r = OVC_f / OVC_n is compared against (1±Δ); the
// native priority rises only once foreign occupancy exceeds native
// occupancy by the hysteresis margin, and falls symmetrically. A zero
// OVC_n with nonzero OVC_f is an infinite ratio (native high); when both
// registers are zero the state holds (nothing to adapt to).
func (p *RAIR) Update(ovcNative, ovcForeign int) {
	if p.cfg.Mode != ModeDPA {
		return
	}
	n, f := float64(ovcNative), float64(ovcForeign)
	if !p.nativeHigh {
		if f > (1+p.cfg.Delta)*n && ovcForeign > 0 {
			p.nativeHigh = true
			p.refreshTables()
		}
	} else {
		if f < (1-p.cfg.Delta)*n {
			p.nativeHigh = false
			p.refreshTables()
		}
	}
}
