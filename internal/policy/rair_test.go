package policy_test

// The tests of RAIR's three mechanisms — VC regionalization, multi-stage
// prioritization and dynamic priority adaptation — on the policy policy.New
// builds, through the package's exported surface only.

import (
	"testing"
	"testing/quick"

	"rair/internal/msg"
	"rair/internal/policy"
)

// The policies under test belong to a router of application 0.
var (
	native  = &msg.Packet{App: 0}
	foreign = &msg.Packet{App: 1}
)

// rairPolicy is the full RAIR (DPA at the default Δ, MSP at VA and SA) with one
// edit applied to its Spec.
func rairPolicy(edit func(*policy.Spec)) *policy.Policy {
	s := policy.Spec{Priority: policy.DPA, Delta: policy.DefaultDelta}
	if edit != nil {
		edit(&s)
	}
	p := policy.New(s, 0)
	return &p
}

// mode is RAIR with the native/foreign priority rule pr.
func mode(pr policy.Priority) *policy.Policy {
	return rairPolicy(func(s *policy.Spec) { s.Priority = pr })
}

// modes are the three native/foreign priority rules.
var modes = []policy.Priority{policy.DPA, policy.NativeH, policy.ForeignH}

func TestGlobalVCAlwaysForeignFirst(t *testing.T) {
	// On global VCs foreign traffic outranks native regardless of DPA
	// state or mode (Section IV.A).
	for _, pr := range modes {
		p := mode(pr)
		p.Update(0, 10) // try to flip DPA state
		nf := p.VAPriority(native, policy.VCGlobal, 0)
		ff := p.VAPriority(foreign, policy.VCGlobal, 0)
		if ff <= nf {
			t.Errorf("rule %d: foreign %d <= native %d on global VC", pr, ff, nf)
		}
	}
}

func TestEscapeVCFlat(t *testing.T) {
	p := rairPolicy(nil)
	if p.VAPriority(native, policy.VCEscape, 0) != p.VAPriority(foreign, policy.VCEscape, 0) {
		t.Fatal("escape VCs must stay fair")
	}
}

func TestDefaultForeignHigh(t *testing.T) {
	// The DPA default is foreign-high (global traffic is typically more
	// critical).
	p := rairPolicy(nil)
	if p.NativeHigh() {
		t.Fatal("fresh DPA state must be foreign-high")
	}
	if p.SAPriority(foreign, 0) <= p.SAPriority(native, 0) {
		t.Fatal("foreign must win SA by default")
	}
	if p.VAPriority(foreign, policy.VCRegional, 0) <= p.VAPriority(native, policy.VCRegional, 0) {
		t.Fatal("foreign must win regional VCs by default")
	}
}

func TestDPAHysteresisTransitions(t *testing.T) {
	p := rairPolicy(nil)
	// Ratio must exceed 1.2 to raise native priority.
	p.Update(10, 11) // r = 1.1, inside band
	if p.NativeHigh() {
		t.Fatal("transition inside hysteresis band")
	}
	p.Update(10, 13) // r = 1.3 > 1.2
	if !p.NativeHigh() {
		t.Fatal("no transition above band")
	}
	// Falling back requires dropping below 0.8.
	p.Update(10, 9) // r = 0.9, inside band: hold
	if !p.NativeHigh() {
		t.Fatal("dropped priority inside band")
	}
	p.Update(10, 7) // r = 0.7 < 0.8
	if p.NativeHigh() {
		t.Fatal("no fallback below band")
	}
}

func TestDPAZeroEdges(t *testing.T) {
	p := rairPolicy(nil)
	p.Update(0, 0) // nothing occupied: hold default
	if p.NativeHigh() {
		t.Fatal("state changed with empty registers")
	}
	p.Update(0, 3) // infinite ratio: native high
	if !p.NativeHigh() {
		t.Fatal("zero native occupancy must give native priority")
	}
	p.Update(0, 0) // hold again
	if !p.NativeHigh() {
		t.Fatal("state must hold when both registers are zero")
	}
	p.Update(5, 0) // r = 0: back to foreign-high
	if p.NativeHigh() {
		t.Fatal("zero foreign occupancy must give foreign priority")
	}
}

func TestStaticModesIgnoreUpdate(t *testing.T) {
	nh := mode(policy.NativeH)
	fh := mode(policy.ForeignH)
	for i := 0; i < 5; i++ {
		nh.Update(0, 100)
		fh.Update(100, 0)
	}
	if !nh.NativeHigh() || fh.NativeHigh() {
		t.Fatal("static modes must not adapt")
	}
	if nh.SAPriority(native, 0) <= nh.SAPriority(foreign, 0) {
		t.Fatal("NativeH must favor native")
	}
	if fh.SAPriority(foreign, 0) <= fh.SAPriority(native, 0) {
		t.Fatal("ForeignH must favor foreign")
	}
}

func TestVAOnlyDisablesSA(t *testing.T) {
	p := rairPolicy(func(s *policy.Spec) { s.MSP = policy.VAOnly })
	if p.SAPriority(native, 0) != p.SAPriority(foreign, 0) {
		t.Fatal("VA-only RAIR must leave SA flat")
	}
	// VA rules still apply.
	if p.VAPriority(foreign, policy.VCGlobal, 0) <= p.VAPriority(native, policy.VCGlobal, 0) {
		t.Fatal("VA rules must still hold")
	}
}

func TestSAConsistentWithRegionalVA(t *testing.T) {
	// Section IV.B: the same DPA priority is used for VA_out, SA_in and
	// SA_out at a given time.
	p := rairPolicy(nil)
	check := func() {
		for _, r := range []*msg.Packet{native, foreign} {
			if p.SAPriority(r, 0) != p.VAPriority(r, policy.VCRegional, 0) {
				t.Fatal("SA and regional-VC priorities diverged")
			}
		}
	}
	check()
	p.Update(1, 10)
	check()
}

// Property: the DPA state machine is a pure function of the update history;
// with ratio far outside the band it always lands in the matching state.
func TestDPAConvergence(t *testing.T) {
	if err := quick.Check(func(updates []bool) bool {
		p := rairPolicy(nil)
		for _, up := range updates {
			if up {
				p.Update(1, 10)
			} else {
				p.Update(10, 1)
			}
		}
		if len(updates) == 0 {
			return !p.NativeHigh()
		}
		return p.NativeHigh() == updates[len(updates)-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DPA acts as negative feedback — the flow with more occupancy
// never holds the high priority (outside the hysteresis band).
func TestDPANegativeFeedback(t *testing.T) {
	if err := quick.Check(func(n8, f8 uint8) bool {
		n, f := int(n8%40), int(f8%40)
		p := rairPolicy(nil)
		p.Update(n, f)
		switch {
		case float64(f) > 1.2*float64(n) && f > 0:
			return p.NativeHigh() // foreign dominates: native protected
		case float64(f) < 0.8*float64(n):
			return !p.NativeHigh() // native dominates: foreign protected
		default:
			return !p.NativeHigh() // inside band: initial state holds
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestZeroDeltaHasNoBand: Δ = 0 is no hysteresis at all (the Δ ablation's
// first row), not a default width: any excess of one occupancy over the
// other flips the state.
func TestZeroDeltaHasNoBand(t *testing.T) {
	p := rairPolicy(func(s *policy.Spec) { s.Delta = 0 })
	for i, s := range []struct {
		ovcN, ovcF int
		wantHigh   bool
	}{{10, 11, true}, {10, 10, true}, {10, 9, false}, {10, 10, false}, {3, 4, true}} {
		if p.Update(s.ovcN, s.ovcF); p.NativeHigh() != s.wantHigh {
			t.Fatalf("step %d (OVC_n=%d OVC_f=%d): NativeHigh=%v, want %v", i, s.ovcN, s.ovcF, p.NativeHigh(), s.wantHigh)
		}
	}
}

// Each router's policy keeps its own DPA state.
func TestFactoryProducesIndependentInstances(t *testing.T) {
	spec := policy.Spec{Priority: policy.DPA, Delta: policy.DefaultDelta}
	a, b := policy.New(spec, 0), policy.New(spec, 1)
	a.Update(0, 10)
	if !a.NativeHigh() || b.NativeHigh() {
		t.Fatal("router DPA states must be independent")
	}
}
