// Package traffic generates the synthetic workloads of the evaluation:
// uniform random, transpose, bit complement and hotspot patterns (Dally &
// Towles), composed per application into the regionalized mixes of the
// paper's scenarios (intra-region traffic, inter-region global traffic with
// a configurable pattern, memory-controller traffic to/from the corners,
// and chip-wide adversarial traffic). It also estimates saturation loads so
// scenarios can be specified as fractions of saturation, as the paper does.
package traffic

import (
	"slices"

	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/topology"
)

// Pattern chooses a destination for a packet from src. Implementations may
// return src; callers resample or skip such draws (self-traffic never
// enters the network).
type Pattern interface {
	Dest(src int, rng *sim.RNG) int
}

// Uniform sends to a uniformly random node of a list (excluding src when
// possible). Build one with NewUniform.
type Uniform struct {
	nodes []int
	first []int32 // first[id] is 1 + id's first position in nodes, 0 if absent
}

// NewUniform returns the uniform pattern over nodes (ids >= 0; repeats
// weight a node, and only src's first occurrence is excluded).
func NewUniform(nodes []int) Uniform {
	u := Uniform{nodes: nodes}
	if len(nodes) > 0 {
		u.first = make([]int32, slices.Max(nodes)+1)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		u.first[nodes[i]] = int32(i + 1)
	}
	return u
}

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *sim.RNG) int {
	n := len(u.nodes)
	if n == 0 {
		return src
	}
	pos := -1
	if uint(src) < uint(len(u.first)) {
		pos = int(u.first[src]) - 1
	}
	if pos < 0 {
		return u.nodes[rng.Intn(n)]
	}
	if n == 1 {
		return src
	}
	idx := rng.Intn(n - 1)
	if idx >= pos {
		idx++
	}
	return u.nodes[idx]
}

// Transpose sends (x,y) to (y,x) on a square mesh. On a non-square mesh the
// swapped coordinate can fall off the grid, so each coordinate wraps into
// range ((y mod W, x mod H)); on square meshes this is exactly the classic
// transpose, and everywhere else every destination is still a valid node.
type Transpose struct {
	Mesh *topology.Mesh
}

// Dest implements Pattern.
func (t Transpose) Dest(src int, _ *sim.RNG) int {
	m := t.Mesh
	if m.W == m.H {
		return m.Transpose(src)
	}
	c := m.Coord(src)
	return m.ID(topology.Coord{X: c.Y % m.W, Y: c.X % m.H})
}

// BitComplement sends node i to N-1-i.
type BitComplement struct {
	Mesh *topology.Mesh
}

// Dest implements Pattern.
func (b BitComplement) Dest(src int, _ *sim.RNG) int { return b.Mesh.BitComplement(src) }

// Hotspot sends to one of the hotspot nodes with probability Frac, else
// defers to Background.
type Hotspot struct {
	Hotspots   []int
	Frac       float64
	Background Pattern
}

// Dest implements Pattern.
func (h Hotspot) Dest(src int, rng *sim.RNG) int {
	if len(h.Hotspots) > 0 && rng.Bool(h.Frac) {
		return h.Hotspots[rng.Intn(len(h.Hotspots))]
	}
	if h.Background != nil {
		return h.Background.Dest(src, rng)
	}
	return src
}

// InterRegion adapts a chip-wide pattern into inter-region ("global")
// traffic: if the base pattern lands inside src's own region, the draw
// falls back to a uniform choice among out-of-region nodes, so the traffic
// is always global (the paper's global-traffic component) while preserving
// the base pattern's shape everywhere it already crosses regions.
type InterRegion struct {
	Base    Pattern
	Regions *region.Map
}

// Dest implements Pattern.
func (p InterRegion) Dest(src int, rng *sim.RNG) int {
	d := p.Base.Dest(src, rng)
	if p.Regions.Global(src, d) && d != src {
		return d
	}
	mesh := p.Regions.Mesh()
	for i := 0; i < 16; i++ {
		d = rng.Intn(mesh.N())
		if d != src && p.Regions.Global(src, d) {
			return d
		}
	}
	return src
}

// PatternNames lists the names PatternByName accepts.
var PatternNames = []string{"UR", "TP", "BC", "HS"}

// PatternByName builds one of the four synthetic global-traffic patterns
// from the paper's Figure 15 over the given mesh: "UR", "TP", "BC" or "HS".
// Hotspot sends 25% of draws to four interior hotspot nodes (one per
// quadrant, at the quarter points), background uniform random; interior
// hotspots keep the pattern distinct from the corner memory-controller
// traffic every scenario already carries.
func PatternByName(name string, mesh *topology.Mesh) Pattern {
	all := make([]int, mesh.N())
	for i := range all {
		all[i] = i
	}
	switch name {
	case "UR":
		return NewUniform(all)
	case "TP":
		return Transpose{Mesh: mesh}
	case "BC":
		return BitComplement{Mesh: mesh}
	case "HS":
		// On tiny or 1-wide meshes the quarter points coincide; keep each
		// hotspot once so duplicates don't silently double a node's share
		// of the hotspot draws.
		qx, qy := mesh.W/4, mesh.H/4
		var hs []int
		for _, c := range []topology.Coord{
			{X: qx, Y: qy},
			{X: mesh.W - 1 - qx, Y: qy},
			{X: qx, Y: mesh.H - 1 - qy},
			{X: mesh.W - 1 - qx, Y: mesh.H - 1 - qy},
		} {
			id := mesh.ID(c)
			seen := false
			for _, h := range hs {
				if h == id {
					seen = true
					break
				}
			}
			if !seen {
				hs = append(hs, id)
			}
		}
		return Hotspot{Hotspots: hs, Frac: 0.25, Background: NewUniform(all)}
	}
	panic("traffic: unknown pattern " + name)
}
