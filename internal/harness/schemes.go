package harness

import (
	"fmt"

	"rair/internal/core"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/topology"
)

// SelectorKind names the output-selection function of a scheme.
type SelectorKind int

const (
	// SelLocal is credit-based local selection.
	SelLocal SelectorKind = iota
	// SelDBAR is region-clipped non-local congestion selection.
	SelDBAR
)

// Scheme is one interference-reduction technique under evaluation: an
// arbitration policy plus a routing algorithm/selector combination. All the
// paper's schemes use minimal adaptive routing with Duato escape VCs
// (Section V.A); they differ in policy and selection function.
type Scheme struct {
	Name     string
	Policy   policy.Factory
	Selector SelectorKind
}

// Alg returns the scheme's routing algorithm for a mesh.
func (s Scheme) Alg(mesh *topology.Mesh) routing.Algorithm {
	return routing.MinimalAdaptive{Mesh: mesh}
}

// Sel returns the scheme's selection function.
func (s Scheme) Sel(regions *region.Map, cfg router.Config) routing.Selector {
	if s.Selector == SelDBAR {
		return routing.DBARSelector{Mesh: regions.Mesh(), Regions: regions, Depth: cfg.Depth * cfg.VCsPerPort()}
	}
	return routing.LocalSelector{}
}

// RORR is the region-oblivious round-robin baseline with local selection.
func RORR() Scheme {
	return Scheme{Name: "RO_RR", Policy: policy.NewRoundRobin}
}

// RORRDBAR is round-robin arbitration over DBAR routing (RO_RR_DBAR in
// Figure 10, RA_DBAR in Figures 14-17: DBAR's region-aware selection is the
// interference-reduction mechanism).
func RORRDBAR(name string) Scheme {
	return Scheme{Name: name, Policy: policy.NewRoundRobin, Selector: SelDBAR}
}

// RORank is the idealized STC with the given oracle ranking (rank 0 =
// least network-intensive = highest priority).
func RORank(ranks []int) Scheme {
	return Scheme{Name: "RO_Rank", Policy: policy.NewRankFactory(ranks)}
}

// RAIR is the full technique (DPA + MSP at VA and SA) with local selection.
func RAIR(name string) Scheme {
	return Scheme{Name: name, Policy: core.NewFactory(core.Config{})}
}

// RAIRDBAR is the full technique over DBAR routing (RAIR_DBAR in Figure 10).
func RAIRDBAR(name string) Scheme {
	return Scheme{Name: name, Policy: core.NewFactory(core.Config{}), Selector: SelDBAR}
}

// RAIRVA is the Figure 9 ablation with MSP enforced only at the VA stage.
func RAIRVA() Scheme {
	return Scheme{Name: "RAIR_VA", Policy: core.NewFactory(core.Config{VAOnly: true})}
}

// RAIRNativeH / RAIRForeignH are the Figure 12 ablations without DPA.
func RAIRNativeH() Scheme {
	return Scheme{Name: "RAIR_NativeH", Policy: core.NewFactory(core.Config{Mode: core.ModeNativeHigh})}
}

// RAIRForeignH statically favors foreign traffic.
func RAIRForeignH() Scheme {
	return Scheme{Name: "RAIR_ForeignH", Policy: core.NewFactory(core.Config{Mode: core.ModeForeignHigh})}
}

// RAIRDelta is RAIR with a specific DPA hysteresis width (the Section IV.C
// Δ ablation). delta = 0 means genuinely no hysteresis (core.Config treats
// zero as "use default", so it is mapped to a negligible width here).
func RAIRDelta(delta float64) Scheme {
	if delta == 0 {
		delta = 1e-12
	}
	return Scheme{Name: "RAIR", Policy: core.NewFactory(core.Config{Delta: delta})}
}

// SchemeByName resolves the evaluation schemes by their report names.
// RO_Rank gets the identity ranking over 8 apps unless built explicitly
// with RORank.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "RO_RR":
		return RORR(), nil
	case "RO_Rank":
		ranks := make([]int, 8)
		for i := range ranks {
			ranks[i] = i
		}
		return RORank(ranks), nil
	case "RA_DBAR", "RO_RR_DBAR":
		return RORRDBAR(name), nil
	case "RA_RAIR", "RAIR", "RAIR_Local", "RAIR_VA+SA":
		return RAIR(name), nil
	case "RAIR_DBAR":
		return RAIRDBAR(name), nil
	case "RAIR_VA":
		return RAIRVA(), nil
	case "RAIR_NativeH":
		return RAIRNativeH(), nil
	case "RAIR_ForeignH":
		return RAIRForeignH(), nil
	}
	return Scheme{}, fmt.Errorf("harness: unknown scheme %q", name)
}
