package routing

import (
	"fmt"

	"rair/internal/region"
	"rair/internal/topology"
)

// LBDR models the restricted region-aware technique of Flich/Trivino et
// al. (Section III.B): packets are confined to their originating region by
// routing restriction, so inter-region ("global") traffic simply cannot be
// routed. Because every application still needs memory, a mapping is only
// valid when every region contains at least one memory controller — the
// constraint behind the paper's ≈14% valid-mapping fraction
// (region.LBDRValidFraction).
//
// LBDR exists here as the restricted baseline: it demonstrates what the
// restriction costs (construction fails for MC-less regions; Supports
// reports which traffic is routable at all). RAIR needs none of this.
type LBDR struct {
	regions *region.Map
}

// NewLBDR validates the mapping — every region must contain at least one of
// the given memory-controller nodes — and returns the restricted router.
func NewLBDR(regions *region.Map, mcs []int) (LBDR, error) {
	if err := regions.Validate(); err != nil {
		return LBDR{}, err
	}
	hasMC := make(map[int]bool)
	for _, mc := range mcs {
		app := regions.AppAt(mc)
		if app != region.Unassigned {
			hasMC[app] = true
		}
	}
	for app := 0; app < regions.NumApps(); app++ {
		if !hasMC[app] {
			return LBDR{}, fmt.Errorf(
				"routing: LBDR-invalid mapping: region %d contains no memory controller", app)
		}
	}
	return LBDR{regions: regions}, nil
}

// Supports reports whether LBDR can route from src to dst: only
// intra-region traffic is legal.
func (l LBDR) Supports(src, dst int) bool {
	return src == dst || l.regions.SameRegion(src, dst)
}

// Route implements Algorithm: minimal directions within the region, XY
// escape. Regions are rectangular, so every minimal path between two region
// nodes stays inside it. Routing a packet LBDR cannot support is a
// configuration error and panics — restricted techniques must filter traffic
// at the source (see Supports).
func (l LBDR) Route(cur topology.Coord, dst int) Route {
	mesh := l.regions.Mesh()
	if src := mesh.ID(cur); !l.Supports(src, dst) {
		panic(fmt.Sprintf("routing: LBDR cannot route inter-region packet %d->%d", src, dst))
	}
	return minimal(mesh, cur, dst)
}
