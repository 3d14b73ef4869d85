// Package region models the regionalized structure of the NoC: which
// application each node belongs to, the native/foreign and regional/global
// traffic classification the RAIR mechanisms rely on, and the standard
// layouts used in the paper's evaluation (halves, quadrants, and a six-region
// grid on an 8×8 mesh).
package region

import (
	"fmt"

	"rair/internal/topology"
)

// Unassigned marks a node that belongs to no application region (RAIR treats
// all traffic at such a node as foreign).
const Unassigned = -1

// Map assigns every node of a mesh to an application region. Region IDs
// equal application IDs: the paper maps one application per region.
type Map struct {
	mesh *topology.Mesh
	app  []int // node id -> app id or Unassigned
	n    int   // number of applications
}

// New returns a map with all nodes unassigned.
func New(mesh *topology.Mesh) *Map {
	app := make([]int, mesh.N())
	for i := range app {
		app[i] = Unassigned
	}
	return &Map{mesh: mesh, app: app}
}

// Mesh returns the underlying mesh.
func (m *Map) Mesh() *topology.Mesh { return m.mesh }

// NumApps reports the number of applications with at least one node.
func (m *Map) NumApps() int { return m.n }

// Assign places node under application app (app >= 0).
func (m *Map) Assign(node, app int) {
	if app < 0 {
		panic("region: negative app id")
	}
	m.app[node] = app
	if app+1 > m.n {
		m.n = app + 1
	}
}

// AppAt returns the application owning node, or Unassigned.
func (m *Map) AppAt(node int) int { return m.app[node] }

// Nodes returns the nodes assigned to app, in id order.
func (m *Map) Nodes(app int) []int {
	var out []int
	for id, a := range m.app {
		if a == app {
			out = append(out, id)
		}
	}
	return out
}

// SameRegion reports whether nodes a and b are in the same (assigned) region.
func (m *Map) SameRegion(a, b int) bool {
	return m.app[a] != Unassigned && m.app[a] == m.app[b]
}

// Global reports whether a packet from src to dst is inter-region ("global
// traffic"). Traffic touching an unassigned node is global: it necessarily
// leaves every application's region.
func (m *Map) Global(src, dst int) bool { return !m.SameRegion(src, dst) }

// Native reports whether a packet belonging to app is native traffic at
// node: the paper's classification compares the packet's application number
// with the router's assigned application number.
func (m *Map) Native(node, app int) bool {
	return m.app[node] != Unassigned && m.app[node] == app
}

// SpanWithin returns the number of consecutive hops from node in direction d
// that stay inside node's region (0 if the first hop already leaves it).
// DBAR's region-clipped congestion aggregation uses this span.
func (m *Map) SpanWithin(node int, d topology.Dir) int {
	a := m.app[node]
	span := 0
	cur := node
	for {
		next := m.mesh.Neighbor(cur, d)
		if next == -1 || m.app[next] != a {
			return span
		}
		span++
		cur = next
	}
}

// Validate checks structural sanity: every app in [0, NumApps) owns at least
// one node.
func (m *Map) Validate() error {
	counts := make([]int, m.n)
	for _, a := range m.app {
		if a != Unassigned {
			counts[a]++
		}
	}
	for app, c := range counts {
		if c == 0 {
			return fmt.Errorf("region: app %d owns no nodes", app)
		}
	}
	return nil
}

// Rect is a half-open rectangle of nodes: x in [X0, X1), y in [Y0, Y1).
type Rect struct{ X0, Y0, X1, Y1 int }

// FromRects builds a map assigning app i to rects[i]. Rectangles must be
// non-overlapping and within the mesh; nodes outside all rectangles stay
// unassigned.
func FromRects(mesh *topology.Mesh, rects []Rect) (*Map, error) {
	m := New(mesh)
	for app, r := range rects {
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > mesh.W || r.Y1 > mesh.H || r.X0 >= r.X1 || r.Y0 >= r.Y1 {
			return nil, fmt.Errorf("region: rect %d %+v out of mesh %dx%d", app, r, mesh.W, mesh.H)
		}
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				id := mesh.ID(topology.Coord{X: x, Y: y})
				if m.app[id] != Unassigned {
					return nil, fmt.Errorf("region: rect %d overlaps node %d (app %d)", app, id, m.app[id])
				}
				m.Assign(id, app)
			}
		}
	}
	return m, nil
}

// Halves splits the mesh into left/right halves: app 0 west, app 1 east
// (the two-application scenario of the MSP and routing experiments).
func Halves(mesh *topology.Mesh) *Map {
	return mustRects(mesh, []Rect{
		{0, 0, mesh.W / 2, mesh.H},
		{mesh.W / 2, 0, mesh.W, mesh.H},
	})
}

// Quadrants splits the mesh into four quadrants, numbered row-major
// (0 = NW, 1 = NE, 2 = SW, 3 = SE), matching the four-application DPA and
// PARSEC scenarios.
func Quadrants(mesh *topology.Mesh) *Map {
	w2, h2 := mesh.W/2, mesh.H/2
	return mustRects(mesh, []Rect{
		{0, 0, w2, h2},
		{w2, 0, mesh.W, h2},
		{0, h2, w2, mesh.H},
		{w2, h2, mesh.W, mesh.H},
	})
}

// SixGrid splits the mesh into a 3×2 grid of regions, numbered row-major
// (apps 0-2 on the top half, 3-5 on the bottom), for the six-application
// scenario. The paper does not give exact rectangles for 64 nodes across 6
// regions; we split each half-height row into column blocks of widths
// ⌈W/3⌉, ⌈W/3⌉ and the remainder (3+3+2 on an 8-wide mesh).
func SixGrid(mesh *topology.Mesh) *Map {
	return mustRects(mesh, SixGridRects(mesh))
}

// SixGridRects returns SixGrid's six rectangles. On a mesh 2 or 4 columns
// wide the third column block is empty, which FromRects rejects.
func SixGridRects(mesh *topology.Mesh) []Rect {
	w3 := (mesh.W + 2) / 3
	h2 := mesh.H / 2
	return []Rect{
		{0, 0, w3, h2},
		{w3, 0, 2 * w3, h2},
		{2 * w3, 0, mesh.W, h2},
		{0, h2, w3, mesh.H},
		{w3, h2, 2 * w3, mesh.H},
		{2 * w3, h2, mesh.W, mesh.H},
	}
}

// Grid splits the mesh into cols×rows rectangular regions numbered
// row-major, with balanced column/row widths (every region non-empty for
// any cols ≤ W, rows ≤ H). Halves and Quadrants are special cases; Grid
// supports the scalability studies of Section VI (regions up to one per
// node).
func Grid(mesh *topology.Mesh, cols, rows int) *Map {
	if cols < 1 || rows < 1 || cols > mesh.W || rows > mesh.H {
		panic(fmt.Sprintf("region: %dx%d grid does not fit a %dx%d mesh", cols, rows, mesh.W, mesh.H))
	}
	var rects []Rect
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			rects = append(rects, Rect{
				X0: c * mesh.W / cols, X1: (c + 1) * mesh.W / cols,
				Y0: r * mesh.H / rows, Y1: (r + 1) * mesh.H / rows,
			})
		}
	}
	return mustRects(mesh, rects)
}

// mustRects is FromRects for the fixed layouts, where rectangles that do
// not fit the mesh are the caller's error.
func mustRects(mesh *topology.Mesh, rects []Rect) *Map {
	m, err := FromRects(mesh, rects)
	if err != nil {
		panic(err)
	}
	return m
}

// Single assigns the whole mesh to one application: the degenerate
// "conventional NoC" case (an RNoC with one region).
func Single(mesh *topology.Mesh) *Map {
	return mustRects(mesh, []Rect{{0, 0, mesh.W, mesh.H}})
}
