package harness

import (
	"fmt"
	"slices"
	"strings"

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
	Policy   policy.Spec
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

// rairSpec is the full technique: DPA at the paper's Δ with MSP at VA and SA.
var rairSpec = policy.Spec{Priority: policy.DPA, Delta: policy.DefaultDelta}

// schemes is the table of named schemes. RA_DBAR is round-robin arbitration
// over DBAR routing: DBAR's region-aware selection is the mechanism (also
// RO_RR_DBAR in Figure 10). RO_Rank is the idealized STC with the identity
// ranking over 8 apps; RORank gives it another oracle ranking. RAIR_VA is
// the Figure 9 ablation with MSP at the VA stage only, RAIR_NativeH and
// RAIR_ForeignH the Figure 12 ablations without DPA.
var schemes = []Scheme{
	{Name: "RO_RR"},
	{Name: "RO_Rank", Policy: policy.Spec{Priority: policy.Rank,
		Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, Batch: policy.BatchInterval}},
	{Name: "RA_DBAR", Selector: SelDBAR},
	{Name: "RA_RAIR", Policy: rairSpec},
	{Name: "RAIR_DBAR", Policy: rairSpec, Selector: SelDBAR},
	{Name: "RAIR_VA", Policy: policy.Spec{Priority: policy.DPA, MSP: policy.VAOnly, Delta: policy.DefaultDelta}},
	{Name: "RAIR_NativeH", Policy: policy.Spec{Priority: policy.NativeH}},
	{Name: "RAIR_ForeignH", Policy: policy.Spec{Priority: policy.ForeignH}},
}

// SchemeNames lists the names of the scheme table, in its order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	return names
}

// SchemeByName returns the table row called name.
func SchemeByName(name string) (Scheme, error) {
	if i := slices.IndexFunc(schemes, func(s Scheme) bool { return s.Name == name }); i >= 0 {
		return schemes[i], nil
	}
	return Scheme{}, fmt.Errorf("harness: unknown scheme %q (want one of %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeAs is the table row called name, under the report label label
// (empty: its own name). Every caller passes a name of the table.
func SchemeAs(name, label string) Scheme {
	s := schemes[slices.IndexFunc(schemes, func(s Scheme) bool { return s.Name == name })]
	if label != "" {
		s.Name = label
	}
	return s
}

// RORR is the region-oblivious round-robin baseline with local selection.
func RORR() Scheme { return SchemeAs("RO_RR", "") }

// RORRDBAR is RA_DBAR under the report label name.
func RORRDBAR(name string) Scheme { return SchemeAs("RA_DBAR", name) }

// RORank is the idealized STC with the given oracle ranking (rank 0 =
// least network-intensive = highest priority).
func RORank(ranks []int) Scheme {
	s := SchemeAs("RO_Rank", "")
	s.Policy.Ranks = slices.Clone(ranks)
	return s
}

// RAIR is RA_RAIR, the full technique with local selection, under the
// report label name.
func RAIR(name string) Scheme { return SchemeAs("RA_RAIR", name) }

// ComparedSchemes are the four techniques compared in Figures 14-17 and the
// co-run extensions; ranks is RO_Rank's oracle ranking for the scenario.
func ComparedSchemes(ranks []int) []Scheme {
	return []Scheme{RORR(), RORRDBAR("RA_DBAR"), RORank(ranks), RAIR("RA_RAIR")}
}
