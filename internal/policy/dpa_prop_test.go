package policy_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rair/internal/policy"
)

// TestDPAHysteresisTable walks the Figure 7 transitions at the default
// Δ=0.2 band explicitly.
func TestDPAHysteresisTable(t *testing.T) {
	steps := []struct {
		ovcN, ovcF int
		wantHigh   bool
		why        string
	}{
		{4, 4, false, "ratio 1.0 inside band, stays foreign-high"},
		{4, 5, true, "ratio 1.25 > 1.2, native goes high"},
		{4, 4, true, "ratio 1.0 inside band, holds"},
		{5, 4, true, "ratio 0.8 not strictly below 0.8, holds"},
		{5, 3, false, "ratio 0.6 < 0.8, native drops"},
		{5, 6, false, "ratio 1.2 not strictly above 1.2, holds"},
		{0, 1, true, "infinite ratio (OVC_n=0, OVC_f>0), native goes high"},
		{0, 0, true, "both registers zero, nothing to adapt to, holds"},
		{1, 0, false, "ratio 0 < 0.8, native drops"},
		{0, 0, false, "both zero again, holds low"},
	}
	p := rairPolicy(nil)
	if p.NativeHigh() {
		t.Fatal("DPA must start foreign-high")
	}
	for i, s := range steps {
		p.Update(s.ovcN, s.ovcF)
		if got := p.NativeHigh(); got != s.wantHigh {
			t.Fatalf("step %d (OVC_n=%d OVC_f=%d): NativeHigh=%v, want %v (%s)",
				i, s.ovcN, s.ovcF, got, s.wantHigh, s.why)
		}
	}
}

// TestDPAHysteresisProperty drives random occupancy sequences through the
// DPA state machine and asserts the hysteresis laws on every step:
//
//   - the priority visible to arbitration during a cycle is computed from
//     the previous cycle's ratio (the state before Update);
//   - the state never transitions while the ratio sits strictly inside the
//     band (1-Δ, 1+Δ);
//   - every transition is justified: up only when OVC_f > (1+Δ)·OVC_n with
//     foreign occupancy present, down only when OVC_f < (1-Δ)·OVC_n.
func TestDPAHysteresisProperty(t *testing.T) {
	check := func(seed int64, dRaw uint8) bool {
		// Δ in (0, 0.5]: the paper's useful range, never zero.
		delta := float64(dRaw%50+1) / 100
		p := rairPolicy(func(s *policy.Spec) { s.Delta = delta })
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 500; step++ {
			ovcN, ovcF := rng.Intn(9), rng.Intn(9)
			before := p.NativeHigh()

			// Previous-cycle property: arbitration this cycle sees the
			// state set by last cycle's Update, no matter what the
			// registers read now.
			wantPrio := 0
			if before {
				wantPrio = 1
			}
			if got := p.VAPriority(native, policy.VCRegional, int64(step)); got != wantPrio {
				t.Errorf("seed %d step %d: VA priority %d disagrees with pre-Update state %v",
					seed, step, got, before)
				return false
			}

			p.Update(ovcN, ovcF)
			after := p.NativeHigh()
			n, f := float64(ovcN), float64(ovcF)
			inBand := f > (1-delta)*n && f < (1+delta)*n
			if inBand && after != before {
				t.Errorf("seed %d step %d: transition %v->%v with ratio %v/%v inside (1±%v) band",
					seed, step, before, after, f, n, delta)
				return false
			}
			switch {
			case !before && after:
				if !(f > (1+delta)*n && ovcF > 0) {
					t.Errorf("seed %d step %d: rose with OVC_f=%d OVC_n=%d Δ=%v", seed, step, ovcF, ovcN, delta)
					return false
				}
			case before && !after:
				if !(f < (1-delta)*n) {
					t.Errorf("seed %d step %d: fell with OVC_f=%d OVC_n=%d Δ=%v", seed, step, ovcF, ovcN, delta)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// TestDPAStaticModesIgnoreOccupancy: the ablation modes pin the priority
// regardless of what Update observes.
func TestDPAStaticModesIgnoreOccupancy(t *testing.T) {
	nh := mode(policy.NativeH)
	fh := mode(policy.ForeignH)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 100; step++ {
		ovcN, ovcF := rng.Intn(9), rng.Intn(9)
		nh.Update(ovcN, ovcF)
		fh.Update(ovcN, ovcF)
		if !nh.NativeHigh() {
			t.Fatal("NativeH lost native priority")
		}
		if fh.NativeHigh() {
			t.Fatal("ForeignH gained native priority")
		}
	}
}
