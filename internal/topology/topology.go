// Package topology describes the physical structure of the on-chip network:
// node coordinates, port directions and the 2D mesh used throughout the
// paper's evaluation (an 8×8 mesh of 64 nodes).
package topology

import "fmt"

// Dir identifies a router port. Local is the injection/ejection port; the
// four cardinal directions connect to neighboring routers.
type Dir int

// Port directions in canonical order. The order is load-bearing: arbiters
// iterate ports in this order, so it must be stable.
const (
	Local Dir = iota
	North
	East
	South
	West
	NumDirs
)

var dirNames = [...]string{"Local", "North", "East", "South", "West"}

func (d Dir) String() string {
	if d < 0 || int(d) >= len(dirNames) {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the facing direction (North↔South, East↔West). The Local
// port has no opposite; Opposite panics on it.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	panic("topology: Opposite of non-cardinal direction")
}

// Coord is a node position; X grows eastward, Y grows southward, with (0,0)
// the northwest corner.
type Coord struct{ X, Y int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add returns c displaced one hop in direction d.
func (c Coord) Add(d Dir) Coord {
	switch d {
	case North:
		return Coord{c.X, c.Y - 1}
	case South:
		return Coord{c.X, c.Y + 1}
	case East:
		return Coord{c.X + 1, c.Y}
	case West:
		return Coord{c.X - 1, c.Y}
	}
	return c
}

// Mesh is a W×H 2D mesh. Node IDs are assigned in row-major order:
// id = y*W + x. Build one with NewMesh: Coord relies on the reciprocal it
// precomputes.
type Mesh struct {
	W, H int

	// recip is floor(2^32 / W) + 1: id*recip>>32 equals id/W for every id below
	// 2^32/W, which NewMesh guarantees covers the whole mesh. Coord sits on
	// the router's per-packet route computation, where a hardware divide
	// would cost more than the rest of the routing decision.
	recip uint64
}

// CheckMesh reports why NewMesh would refuse the dimensions: each must be
// >= 1 and W²·H must stay below 2³² (the reciprocal row divide). Callers
// holding user input check first; NewMesh panics with the same error.
func CheckMesh(w, h int) error {
	if w < 1 || h < 1 {
		return fmt.Errorf("topology: mesh %dx%d: dimensions must be >= 1", w, h)
	}
	// w < 2¹⁶ and h < 2³² keep the product inside uint64.
	if w >= 1<<16 || h >= 1<<32 || uint64(w)*uint64(w)*uint64(h) >= 1<<32 {
		return fmt.Errorf("topology: mesh %dx%d too large for the reciprocal row divide (W²·H must be < 2³²)", w, h)
	}
	return nil
}

// NewMesh returns a mesh of the given dimensions (see CheckMesh).
func NewMesh(w, h int) *Mesh {
	if err := CheckMesh(w, h); err != nil {
		panic(err)
	}
	return &Mesh{W: w, H: h, recip: 1<<32/uint64(w) + 1}
}

// N reports the number of nodes.
func (m *Mesh) N() int { return m.W * m.H }

// Coord returns the coordinate of node id (division-free, see recip).
func (m *Mesh) Coord(id int) Coord {
	if uint(id) >= uint(m.W*m.H) {
		panic(nodeRangeError(id))
	}
	y := int(uint64(id) * m.recip >> 32)
	return Coord{X: id - y*m.W, Y: y}
}

// nodeRangeError is Coord's panic value; formatting it lazily keeps Coord
// small enough to inline into the routing functions.
type nodeRangeError int

func (e nodeRangeError) Error() string {
	return fmt.Sprintf("topology: node %d out of range", int(e))
}

// ID returns the node id at coordinate c.
func (m *Mesh) ID(c Coord) int {
	if !m.Contains(c) {
		panic(fmt.Sprintf("topology: coord %v out of range", c))
	}
	return c.Y*m.W + c.X
}

// Contains reports whether c lies within the mesh.
func (m *Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// Neighbor returns the node one hop from id in direction d, or -1 if the hop
// leaves the mesh (or d is Local).
func (m *Mesh) Neighbor(id int, d Dir) int {
	if d == Local {
		return -1
	}
	c := m.Coord(id).Add(d)
	if !m.Contains(c) {
		return -1
	}
	return m.ID(c)
}

// Distance returns the Manhattan (minimal hop) distance between nodes a and b.
func (m *Mesh) Distance(a, b int) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// MinimalDirs returns the productive directions from cur toward dst: the set
// of cardinal hops that strictly reduce Manhattan distance. It returns an
// empty slice when cur == dst. At most two directions are ever productive in
// a mesh; out is appended to and returned to let callers avoid allocation.
func (m *Mesh) MinimalDirs(cur, dst int, out []Dir) []Dir {
	cc, cd := m.Coord(cur), m.Coord(dst)
	if cd.X > cc.X {
		out = append(out, East)
	} else if cd.X < cc.X {
		out = append(out, West)
	}
	if cd.Y > cc.Y {
		out = append(out, South)
	} else if cd.Y < cc.Y {
		out = append(out, North)
	}
	return out
}

// Transpose maps (x,y) to (y,x). It is only defined for square meshes.
func (m *Mesh) Transpose(id int) int {
	if m.W != m.H {
		panic("topology: transpose on non-square mesh")
	}
	c := m.Coord(id)
	return m.ID(Coord{X: c.Y, Y: c.X})
}

// BitComplement maps node i to N-1-i, the standard bit-complement pattern
// for power-of-two node counts.
func (m *Mesh) BitComplement(id int) int {
	if id < 0 || id >= m.N() {
		panic("topology: node out of range")
	}
	return m.N() - 1 - id
}

// Corners returns the four corner node ids (NW, NE, SW, SE); the evaluation
// places memory controllers there.
func (m *Mesh) Corners() [4]int {
	return [4]int{
		m.ID(Coord{0, 0}),
		m.ID(Coord{m.W - 1, 0}),
		m.ID(Coord{0, m.H - 1}),
		m.ID(Coord{m.W - 1, m.H - 1}),
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
