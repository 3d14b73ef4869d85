package core

import (
	"testing"
	"testing/quick"

	"rair/internal/policy"
)

var (
	native  = policy.Requestor{App: 0, Native: true}
	foreign = policy.Requestor{App: 1, Native: false}
)

func TestGlobalVCAlwaysForeignFirst(t *testing.T) {
	// On global VCs foreign traffic outranks native regardless of DPA
	// state or mode (Section IV.A).
	for _, mode := range []PriorityMode{ModeDPA, ModeNativeHigh, ModeForeignHigh} {
		p := New(Config{Mode: mode})
		p.Update(0, 10) // try to flip DPA state
		nf := p.VAOutPriority(native, policy.VCGlobal, 0)
		ff := p.VAOutPriority(foreign, policy.VCGlobal, 0)
		if ff <= nf {
			t.Errorf("mode %v: foreign %d <= native %d on global VC", mode, ff, nf)
		}
	}
}

func TestEscapeVCFlat(t *testing.T) {
	p := New(Config{})
	if p.VAOutPriority(native, policy.VCEscape, 0) != p.VAOutPriority(foreign, policy.VCEscape, 0) {
		t.Fatal("escape VCs must stay fair")
	}
}

func TestDefaultForeignHigh(t *testing.T) {
	// The DPA default is foreign-high (global traffic is typically more
	// critical).
	p := New(Config{})
	if p.NativeHigh() {
		t.Fatal("fresh DPA state must be foreign-high")
	}
	if p.SAPriority(foreign, 0) <= p.SAPriority(native, 0) {
		t.Fatal("foreign must win SA by default")
	}
	if p.VAOutPriority(foreign, policy.VCRegional, 0) <= p.VAOutPriority(native, policy.VCRegional, 0) {
		t.Fatal("foreign must win regional VCs by default")
	}
}

func TestDPAHysteresisTransitions(t *testing.T) {
	p := New(Config{Delta: 0.2})
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
	p := New(Config{})
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
	nh := New(Config{Mode: ModeNativeHigh})
	fh := New(Config{Mode: ModeForeignHigh})
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
	p := New(Config{VAOnly: true})
	if p.SAPriority(native, 0) != p.SAPriority(foreign, 0) {
		t.Fatal("VA-only RAIR must leave SA flat")
	}
	// VA rules still apply.
	if p.VAOutPriority(foreign, policy.VCGlobal, 0) <= p.VAOutPriority(native, policy.VCGlobal, 0) {
		t.Fatal("VA rules must still hold")
	}
}

func TestSAConsistentWithRegionalVA(t *testing.T) {
	// Section IV.B: the same DPA priority is used for VA_out, SA_in and
	// SA_out at a given time.
	p := New(Config{})
	check := func() {
		for _, r := range []policy.Requestor{native, foreign} {
			if p.SAPriority(r, 0) != p.VAOutPriority(r, policy.VCRegional, 0) {
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
		p := New(Config{})
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
		p := New(Config{Delta: 0.2})
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

func TestDeltaDefaultAndValidation(t *testing.T) {
	p := New(Config{})
	if p.cfg.Delta != DefaultDelta {
		t.Fatalf("default delta = %v", p.cfg.Delta)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delta")
		}
	}()
	New(Config{Delta: -0.1})
}

func TestFactoryProducesIndependentInstances(t *testing.T) {
	f := NewFactory(Config{})
	a, b := f(0, 0), f(1, 1)
	a.Update(0, 10)
	ra := a.(*RAIR)
	rb := b.(*RAIR)
	if !ra.NativeHigh() || rb.NativeHigh() {
		t.Fatal("router DPA states must be independent")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeDPA.String() != "DPA" || ModeNativeHigh.String() != "NativeH" ||
		ModeForeignHigh.String() != "ForeignH" || PriorityMode(9).String() != "Mode(?)" {
		t.Fatal("mode strings")
	}
}

// TestTablesMatchInterface cross-checks the Tabular fast path against the
// interface methods it shortcuts: for every mode, in both DPA states, the
// lookup tables must return exactly what SAPriority/VAOutPriority return
// for every (native, class) combination. refreshTables and the interface
// methods are maintained by hand in parallel; this is the guard that keeps
// them from drifting.
func TestTablesMatchInterface(t *testing.T) {
	for _, cfg := range []Config{
		{}, {VAOnly: true}, {Mode: ModeNativeHigh}, {Mode: ModeForeignHigh},
	} {
		p := New(cfg)
		check := func(state string) {
			saTab, vaTab := p.PriorityTables()
			for nat := 0; nat < 2; nat++ {
				r := policy.Requestor{Native: nat == 1}
				if got, want := int(saTab[nat]), p.SAPriority(r, 0); got != want {
					t.Errorf("%+v %s: saTab[%d]=%d, SAPriority=%d", cfg, state, nat, got, want)
				}
				for cls := 0; cls < 3; cls++ {
					if got, want := int(vaTab[cls][nat]), p.VAOutPriority(r, policy.VCClass(cls), 0); got != want {
						t.Errorf("%+v %s: vaTab[%d][%d]=%d, VAOutPriority=%d", cfg, state, cls, nat, got, want)
					}
				}
			}
		}
		check("initial")
		// Drive the DPA through both states (no-op for the static modes,
		// which must also leave the tables untouched).
		p.Update(1, 100)
		check("foreign-heavy")
		p.Update(100, 1)
		check("native-heavy")
	}
}
