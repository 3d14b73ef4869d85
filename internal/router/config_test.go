package router

import (
	"strings"
	"testing"

	"rair/internal/msg"
	"rair/internal/policy"
)

func TestDefaultConfigValid(t *testing.T) {
	for classes := 1; classes <= 3; classes++ {
		cfg := DefaultConfig(classes)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("classes=%d: %v", classes, err)
		}
		if cfg.VCsPerClass() != 5 {
			t.Fatalf("VCsPerClass = %d", cfg.VCsPerClass())
		}
		if cfg.VCsPerPort() != 5*classes {
			t.Fatalf("VCsPerPort = %d", cfg.VCsPerPort())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Classes: 0, AdaptiveVCs: 4, EscapeVCs: 1, Depth: 5, LinkLatency: 1},
		{Classes: 1, AdaptiveVCs: 0, EscapeVCs: 1, Depth: 5, LinkLatency: 1},
		{Classes: 1, AdaptiveVCs: 4, GlobalVCs: 5, EscapeVCs: 1, Depth: 5, LinkLatency: 1},
		{Classes: 1, AdaptiveVCs: 4, GlobalVCs: -1, EscapeVCs: 1, Depth: 5, LinkLatency: 1},
		{Classes: 1, AdaptiveVCs: 4, EscapeVCs: 0, Depth: 5, LinkLatency: 1},
		{Classes: 1, AdaptiveVCs: 4, EscapeVCs: 1, Depth: 0, LinkLatency: 1},
		{Classes: 1, AdaptiveVCs: 4, EscapeVCs: 1, Depth: 5, LinkLatency: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Depth and link latency stop at the cap, and an error past it names it.
	edge := DefaultConfig(1)
	edge.Depth, edge.LinkLatency = maxSlots, maxSlots
	if err := edge.Validate(); err != nil {
		t.Errorf("depth and latency at the cap rejected: %v", err)
	}
	for _, over := range []*int{&edge.Depth, &edge.LinkLatency} {
		*over++
		if err := edge.Validate(); err == nil || !strings.Contains(err.Error(), "256") {
			t.Errorf("depth %d, latency %d: got %v, want an error naming 256", edge.Depth, edge.LinkLatency, err)
		}
		*over--
	}
}

func TestVCLayout(t *testing.T) {
	cfg := DefaultConfig(2) // per class: [escape, global, global, regional, regional]
	wantKinds := []policy.VCClass{
		policy.VCEscape, policy.VCGlobal, policy.VCGlobal, policy.VCRegional, policy.VCRegional,
		policy.VCEscape, policy.VCGlobal, policy.VCGlobal, policy.VCRegional, policy.VCRegional,
	}
	for vc, want := range wantKinds {
		if got := cfg.KindOf(vc); got != want {
			t.Errorf("KindOf(%d) = %v, want %v", vc, got, want)
		}
		wantClass := msg.ClassRequest
		if vc >= 5 {
			wantClass = msg.ClassResponse
		}
		if base := cfg.ClassBase(wantClass); vc < base || vc >= base+cfg.VCsPerClass() {
			t.Errorf("VC %d outside class %v's range from %d", vc, wantClass, base)
		}
	}
	if cfg.ClassBase(msg.ClassResponse) != 5 {
		t.Fatalf("ClassBase = %d", cfg.ClassBase(msg.ClassResponse))
	}
}

func TestVCLayoutCounts(t *testing.T) {
	cfg := DefaultConfig(1)
	counts := map[policy.VCClass]int{}
	for vc := 0; vc < cfg.VCsPerPort(); vc++ {
		counts[cfg.KindOf(vc)]++
	}
	if counts[policy.VCEscape] != 1 || counts[policy.VCGlobal] != 2 || counts[policy.VCRegional] != 2 {
		t.Fatalf("kind counts %v", counts)
	}
}

func TestKindOfOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultConfig(1).KindOf(5)
}

func TestAsymmetricVCSplit(t *testing.T) {
	// Section VI ablation: more regional than global VCs.
	cfg := DefaultConfig(1)
	cfg.GlobalVCs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := map[policy.VCClass]int{}
	for vc := 0; vc < cfg.VCsPerPort(); vc++ {
		counts[cfg.KindOf(vc)]++
	}
	if counts[policy.VCGlobal] != 1 || counts[policy.VCRegional] != 3 {
		t.Fatalf("kind counts %v", counts)
	}
}
