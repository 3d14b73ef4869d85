package region

import (
	"testing"
	"testing/quick"

	"rair/internal/topology"
)

func mesh8() *topology.Mesh { return topology.NewMesh(8, 8) }

func TestHalves(t *testing.T) {
	m := Halves(mesh8())
	if m.NumApps() != 2 {
		t.Fatalf("NumApps = %d", m.NumApps())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// (0,0) is app 0; (7,0) is app 1.
	if m.AppAt(0) != 0 || m.AppAt(7) != 1 {
		t.Fatalf("halves assignment wrong: %d %d", m.AppAt(0), m.AppAt(7))
	}
	if len(m.Nodes(0)) != 32 || len(m.Nodes(1)) != 32 {
		t.Fatal("halves must have 32 nodes each")
	}
}

func TestQuadrants(t *testing.T) {
	m := Quadrants(mesh8())
	if m.NumApps() != 4 {
		t.Fatalf("NumApps = %d", m.NumApps())
	}
	for app := 0; app < 4; app++ {
		if len(m.Nodes(app)) != 16 {
			t.Fatalf("quadrant %d has %d nodes", app, len(m.Nodes(app)))
		}
	}
	mesh := m.Mesh()
	if m.AppAt(mesh.ID(topology.Coord{X: 0, Y: 0})) != 0 ||
		m.AppAt(mesh.ID(topology.Coord{X: 7, Y: 0})) != 1 ||
		m.AppAt(mesh.ID(topology.Coord{X: 0, Y: 7})) != 2 ||
		m.AppAt(mesh.ID(topology.Coord{X: 7, Y: 7})) != 3 {
		t.Fatal("quadrant numbering wrong")
	}
}

func TestSixGrid(t *testing.T) {
	m := SixGrid(mesh8())
	if m.NumApps() != 6 {
		t.Fatalf("NumApps = %d", m.NumApps())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	sizes := []int{12, 12, 8, 12, 12, 8}
	for app := 0; app < 6; app++ {
		n := len(m.Nodes(app))
		if n != sizes[app] {
			t.Fatalf("region %d size %d, want %d", app, n, sizes[app])
		}
		total += n
	}
	if total != 64 {
		t.Fatalf("regions cover %d nodes", total)
	}
}

func TestSingle(t *testing.T) {
	m := Single(mesh8())
	if m.NumApps() != 1 || len(m.Nodes(0)) != 64 {
		t.Fatal("single region wrong")
	}
	if m.Global(0, 63) {
		t.Fatal("no traffic is global in a single-region NoC")
	}
}

func TestGlobalAndNative(t *testing.T) {
	m := Halves(mesh8())
	left, right := 0, 7
	if m.Global(left, 1) {
		t.Fatal("same-half traffic is regional")
	}
	if !m.Global(left, right) {
		t.Fatal("cross-half traffic is global")
	}
	if !m.Native(left, 0) || m.Native(left, 1) {
		t.Fatal("native classification wrong")
	}
}

func TestUnassignedIsGlobalAndForeign(t *testing.T) {
	m := New(mesh8())
	m.Assign(0, 0)
	if !m.Global(0, 63) || !m.Global(63, 0) {
		t.Fatal("traffic touching unassigned nodes must be global")
	}
	if m.Native(63, 0) {
		t.Fatal("nothing is native at an unassigned node")
	}
	if m.SameRegion(63, 63) {
		t.Fatal("unassigned nodes are never in the same region")
	}
}

func TestSpanWithin(t *testing.T) {
	m := Halves(mesh8())
	mesh := m.Mesh()
	// From (0,0): 3 hops east stay in the left half (cols 1,2,3).
	id := mesh.ID(topology.Coord{X: 0, Y: 0})
	if s := m.SpanWithin(id, topology.East); s != 3 {
		t.Fatalf("east span = %d, want 3", s)
	}
	// Going south stays in-region to the mesh edge: 7 hops.
	if s := m.SpanWithin(id, topology.South); s != 7 {
		t.Fatalf("south span = %d, want 7", s)
	}
	// From (3,0), east immediately leaves the region.
	id = mesh.ID(topology.Coord{X: 3, Y: 0})
	if s := m.SpanWithin(id, topology.East); s != 0 {
		t.Fatalf("boundary east span = %d, want 0", s)
	}
}

func TestFromRectsErrors(t *testing.T) {
	mesh := mesh8()
	if _, err := FromRects(mesh, []Rect{{0, 0, 9, 1}}); err == nil {
		t.Fatal("out-of-mesh rect accepted")
	}
	if _, err := FromRects(mesh, []Rect{{0, 0, 2, 2}, {1, 1, 3, 3}}); err == nil {
		t.Fatal("overlapping rects accepted")
	}
	if _, err := FromRects(mesh, []Rect{{2, 2, 2, 4}}); err == nil {
		t.Fatal("empty rect accepted")
	}
}

func TestValidateDetectsEmptyApp(t *testing.T) {
	m := New(mesh8())
	m.Assign(0, 2) // apps 0 and 1 own nothing
	if err := m.Validate(); err == nil {
		t.Fatal("Validate missed empty apps")
	}
}

// TestRectHelpers: a Rect is half-open, so FromRects assigns its low edges
// and leaves its high edges unassigned.
func TestRectHelpers(t *testing.T) {
	mesh := mesh8()
	m, err := FromRects(mesh, []Rect{{1, 1, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x, y, app int
	}{{1, 1, 0}, {2, 3, 0}, {3, 3, -1}, {2, 4, -1}, {0, 1, -1}} {
		if got := m.AppAt(mesh.ID(topology.Coord{X: c.x, Y: c.y})); got != c.app {
			t.Errorf("(%d,%d) in app %d, want %d", c.x, c.y, got, c.app)
		}
	}
}

// Property: for rect layouts, SameRegion is an equivalence relation
// consistent with AppAt.
func TestSameRegionConsistent(t *testing.T) {
	m := Quadrants(mesh8())
	if err := quick.Check(func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		return m.SameRegion(x, y) == (m.AppAt(x) == m.AppAt(y))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssignNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(mesh8()).Assign(0, -3)
}

func TestGridLayouts(t *testing.T) {
	mesh := mesh8()
	cases := []struct {
		cols, rows, want int
	}{{2, 1, 2}, {2, 2, 4}, {4, 2, 8}, {4, 4, 16}, {8, 8, 64}, {1, 1, 1}, {3, 2, 6}}
	for _, c := range cases {
		m := Grid(mesh, c.cols, c.rows)
		if m.NumApps() != c.want {
			t.Fatalf("%dx%d grid has %d regions, want %d", c.cols, c.rows, m.NumApps(), c.want)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%dx%d: %v", c.cols, c.rows, err)
		}
		total := 0
		for a := 0; a < m.NumApps(); a++ {
			total += len(m.Nodes(a))
		}
		if total != 64 {
			t.Fatalf("%dx%d grid covers %d nodes", c.cols, c.rows, total)
		}
	}
	// Balanced partition: region sizes differ by at most one column/row.
	g := Grid(mesh, 3, 2)
	for a := 0; a < 6; a++ {
		if n := len(g.Nodes(a)); n != 8 && n != 12 {
			t.Fatalf("Grid(3,2) region %d has %d nodes", a, n)
		}
	}
	// Grid matches the fixed layouts where they overlap.
	q := Grid(mesh, 2, 2)
	qq := Quadrants(mesh)
	for node := 0; node < 64; node++ {
		if q.AppAt(node) != qq.AppAt(node) {
			t.Fatalf("Grid(2,2) diverges from Quadrants at node %d", node)
		}
	}
}

func TestGridNonDivisibleAlwaysCovers(t *testing.T) {
	// Balanced partition must never leave a region empty, even when the
	// mesh dimension does not divide evenly (the case a ceil-based split
	// gets wrong, e.g. 3 columns on a 4-wide mesh).
	for _, dims := range [][4]int{{4, 4, 3, 2}, {5, 3, 4, 3}, {7, 7, 5, 6}, {4, 4, 4, 4}} {
		mesh := topology.NewMesh(dims[0], dims[1])
		m := Grid(mesh, dims[2], dims[3])
		if m.NumApps() != dims[2]*dims[3] {
			t.Fatalf("%v: %d regions", dims, m.NumApps())
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestGridPanicsWhenUnfit(t *testing.T) {
	mesh := mesh8()
	for _, c := range [][2]int{{0, 1}, {9, 1}, {1, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Grid(%d,%d) accepted", c[0], c[1])
				}
			}()
			Grid(mesh, c[0], c[1])
		}()
	}
}
