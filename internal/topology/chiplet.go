package topology

import "fmt"

// Chiplets describes a two-level scale-out system: a ChipsX×ChipsY package
// of chiplet tiles, each an internal K×K mesh, joined by an inter-chip
// crossbar switch. Node ids live in the single (ChipsX·K)×(ChipsY·K) global
// mesh, so region maps, statistics and the tick engine keep their flat node
// space; mesh links that would cross a tile edge are simply never built.
// Inter-chiplet packets instead leave through their tile's gateway router,
// cross the switch, and re-enter the destination tile at its gateway (see
// network.Crossbar and DESIGN.md "Scale-out topologies").
type Chiplets struct {
	// ChipsX, ChipsY are the package grid dimensions; K the tile mesh side.
	ChipsX, ChipsY int
	K              int
	mesh           *Mesh
}

// NewChiplets builds a chiplet system of chipsX×chipsY tiles, each a K×K
// mesh. A system needs at least two tiles (one tile is just a mesh) and
// tiles of at least 2×2 (a 1×1 tile has no intra-tile network).
func NewChiplets(chipsX, chipsY, k int) *Chiplets {
	if chipsX < 1 || chipsY < 1 || k < 2 {
		panic(fmt.Sprintf("topology: bad chiplet grid %dx%d of K=%d (need tiles >= 1x1, K >= 2)",
			chipsX, chipsY, k))
	}
	if chipsX*chipsY < 2 {
		panic("topology: a chiplet system needs at least two tiles")
	}
	return &Chiplets{ChipsX: chipsX, ChipsY: chipsY, K: k, mesh: NewMesh(chipsX*k, chipsY*k)}
}

// Mesh returns the global node space: the (ChipsX·K)×(ChipsY·K) mesh whose
// cross-tile links are never wired.
func (c *Chiplets) Mesh() *Mesh { return c.mesh }

// Chips reports the number of chiplet tiles.
func (c *Chiplets) Chips() int { return c.ChipsX * c.ChipsY }

// ChipOf returns the chiplet index of a global node id. Tiles are numbered
// row-major over the package grid, matching region.Grid's region numbering
// so that "one chiplet = one RAIR region" maps make chip i region i.
func (c *Chiplets) ChipOf(node int) int {
	co := c.mesh.Coord(node)
	return (co.Y/c.K)*c.ChipsX + co.X/c.K
}

// SameChip reports whether two nodes share a tile (their packets never
// touch the crossbar).
func (c *Chiplets) SameChip(a, b int) bool { return c.ChipOf(a) == c.ChipOf(b) }

// TileOrigin returns the global coordinate of chip's northwest node.
func (c *Chiplets) TileOrigin(chip int) Coord {
	c.checkChip(chip)
	return Coord{X: (chip % c.ChipsX) * c.K, Y: (chip / c.ChipsX) * c.K}
}

// Gateway returns chip's boundary router: the tile corner nearest the
// center of the package, where the chip-to-chip PHY sits. All of the tile's
// outbound inter-chiplet traffic ejects here into the crossbar, and foreign
// traffic from other chiplets re-enters the tile here — the single point
// where RAIR's boundary routers gate foreign traffic.
func (c *Chiplets) Gateway(chip int) int {
	o := c.TileOrigin(chip)
	return c.mesh.ID(Coord{
		X: nearerToCenter(o.X, o.X+c.K-1, c.mesh.W),
		Y: nearerToCenter(o.Y, o.Y+c.K-1, c.mesh.H),
	})
}

// nearerToCenter picks whichever of a or b lies closer to the center of a
// span of the given width (ties break toward a, which callers pass as the
// lower coordinate, keeping the choice deterministic).
func nearerToCenter(a, b, span int) int {
	if abs(2*b-(span-1)) < abs(2*a-(span-1)) {
		return b
	}
	return a
}

func (c *Chiplets) checkChip(chip int) {
	if chip < 0 || chip >= c.Chips() {
		panic(fmt.Sprintf("topology: chip %d out of range [0,%d)", chip, c.Chips()))
	}
}
