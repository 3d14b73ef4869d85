package routing

import (
	"testing"
	"testing/quick"

	"rair/internal/region"
	"rair/internal/topology"
)

func TestLBDRValidMapping(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	regs := region.Quadrants(mesh)
	corners := mesh.Corners()
	l, err := NewLBDR(regs, corners[:])
	if err != nil {
		t.Fatal(err)
	}
	// Each quadrant contains one corner MC: mapping valid.
	if !l.Supports(0, 9) { // both in quadrant 0
		t.Fatal("intra-region must be supported")
	}
	if l.Supports(0, 63) {
		t.Fatal("inter-region must be rejected")
	}
}

func TestLBDRInvalidMapping(t *testing.T) {
	// Middle region without any corner MC (the paper's Figure 3(b) case).
	mesh := topology.NewMesh(8, 8)
	regs, err := region.FromRects(mesh, []region.Rect{
		{X0: 0, Y0: 0, X1: 2, Y1: 8},
		{X0: 2, Y0: 0, X1: 6, Y1: 8}, // middle band: no corner
		{X0: 6, Y0: 0, X1: 8, Y1: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	corners := mesh.Corners()
	if _, err := NewLBDR(regs, corners[:]); err == nil {
		t.Fatal("MC-less region accepted")
	}
}

func TestLBDRInvalidRegionMap(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	m := region.New(mesh)
	m.Assign(0, 2) // apps 0,1 empty
	if _, err := NewLBDR(m, []int{0}); err == nil {
		t.Fatal("broken region map accepted")
	}
}

// Property: LBDR candidates stay inside the packet's region and are
// minimal.
func TestLBDRStaysInRegion(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	regs := region.Quadrants(mesh)
	corners := mesh.Corners()
	l, err := NewLBDR(regs, corners[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(a, b uint8) bool {
		cur, dst := int(a)%64, int(b)%64
		if !l.Supports(cur, dst) {
			return true
		}
		for _, d := range candidates(l, mesh, cur, dst) {
			if d == topology.Local {
				continue
			}
			n := mesh.Neighbor(cur, d)
			if n == -1 || !regs.SameRegion(cur, n) {
				return false
			}
			if mesh.Distance(n, dst) != mesh.Distance(cur, dst)-1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLBDRPanicsOnGlobalTraffic(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	regs := region.Quadrants(mesh)
	corners := mesh.Corners()
	l, _ := NewLBDR(regs, corners[:])
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Route(mesh.Coord(0), 63)
}

func TestWestFirstRules(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	a := WestFirst{Mesh: mesh}
	// Destination to the south-west: must go west first, only west.
	src := mesh.ID(topology.Coord{X: 5, Y: 2})
	dst := mesh.ID(topology.Coord{X: 2, Y: 6})
	dirs := candidates(a, mesh, src, dst)
	if len(dirs) != 1 || dirs[0] != topology.West {
		t.Fatalf("west-first candidates %v", dirs)
	}
	// Destination east: fully adaptive among minimal dirs.
	dst2 := mesh.ID(topology.Coord{X: 7, Y: 6})
	dirs = candidates(a, mesh, src, dst2)
	if len(dirs) != 2 {
		t.Fatalf("eastward candidates %v", dirs)
	}
	if d := candidates(a, mesh, 5, 5); d[0] != topology.Local {
		t.Fatal("self route")
	}
}

// Property: west-first never offers a forbidden turn: once any non-west hop
// is possible, west is not among the candidates unless it is the only one.
func TestWestFirstNeverTurnsBackWest(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	a := WestFirst{Mesh: mesh}
	if err := quick.Check(func(s, d uint8) bool {
		cur, dst := int(s)%64, int(d)%64
		if cur == dst {
			return true
		}
		dirs := candidates(a, mesh, cur, dst)
		hasWest := false
		for _, dir := range dirs {
			if dir == topology.West {
				hasWest = true
			}
		}
		// If west is needed it must be the only candidate (no NS-to-W
		// turns ever offered).
		if hasWest && len(dirs) != 1 {
			return false
		}
		// Escape dir must be one of the candidates.
		esc := a.Route(mesh.Coord(cur), dst).Esc
		for _, dir := range dirs {
			if dir == esc {
				return true
			}
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
}
