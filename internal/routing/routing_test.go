package routing

import (
	"reflect"
	"testing"
	"testing/quick"

	"rair/internal/region"
	"rair/internal/topology"
)

type fakeView struct {
	free map[topology.Dir]int
	path map[topology.Dir][]int // occupancy per hop distance (1-based)
}

func (v fakeView) OutputFree(d topology.Dir) int { return v.free[d] }

func (v fakeView) PathOccupancy(d topology.Dir, hops int) int {
	sum := 0
	occ := v.path[d]
	for k := 0; k < hops && k < len(occ); k++ {
		sum += occ[k]
	}
	return sum
}

// candidates unpacks an algorithm's candidate list for a packet at node cur.
func candidates(a Algorithm, m *topology.Mesh, cur, dst int) []topology.Dir {
	rt := a.Route(m.Coord(cur), dst)
	return []topology.Dir{rt.First, rt.Second}[:rt.N]
}

func TestXYAlgorithm(t *testing.T) {
	m := topology.NewMesh(8, 8)
	a := XY{Mesh: m}
	dirs := candidates(a, m, 0, 63)
	if len(dirs) != 1 || dirs[0] != topology.East {
		t.Fatalf("XY candidates = %v", dirs)
	}
	if a.Route(m.Coord(0), 63).Esc != topology.East {
		t.Fatal("escape dir")
	}
	if d := candidates(a, m, 5, 5); d[0] != topology.Local {
		t.Fatal("self route must be Local")
	}
}

func TestMinimalAdaptiveCandidates(t *testing.T) {
	m := topology.NewMesh(8, 8)
	a := MinimalAdaptive{Mesh: m}
	// 0 -> 63 needs East and South.
	dirs := candidates(a, m, 0, 63)
	if len(dirs) != 2 {
		t.Fatalf("candidates = %v", dirs)
	}
	has := map[topology.Dir]bool{}
	for _, d := range dirs {
		has[d] = true
	}
	if !has[topology.East] || !has[topology.South] {
		t.Fatalf("candidates = %v", dirs)
	}
	// Same row: only one candidate.
	if dirs := candidates(a, m, 0, 7); len(dirs) != 1 || dirs[0] != topology.East {
		t.Fatalf("row candidates = %v", dirs)
	}
	if dirs := candidates(a, m, 9, 9); len(dirs) != 1 || dirs[0] != topology.Local {
		t.Fatalf("self candidates = %v", dirs)
	}
}

// Property: the escape direction is always among a productive direction set
// and XY-consistent, so escape VC hops are minimal and deadlock-free.
func TestEscapeDirAlwaysMinimal(t *testing.T) {
	m := topology.NewMesh(8, 8)
	a := MinimalAdaptive{Mesh: m}
	if err := quick.Check(func(s, d uint8) bool {
		cur, dst := int(s)%64, int(d)%64
		if cur == dst {
			return a.Route(m.Coord(cur), dst).Esc == topology.Local
		}
		esc := a.Route(m.Coord(cur), dst).Esc
		for _, dir := range candidates(a, m, cur, dst) {
			if dir == esc {
				return true
			}
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSelectorPicksMostFree(t *testing.T) {
	v := fakeView{free: map[topology.Dir]int{topology.East: 2, topology.South: 7}}
	s := LocalSelector{}
	got := s.Select(0, 63, []topology.Dir{topology.East, topology.South}, v)
	if got != topology.South {
		t.Fatalf("selected %v", got)
	}
	// Tie prefers the first candidate.
	v.free[topology.South] = 2
	got = s.Select(0, 63, []topology.Dir{topology.East, topology.South}, v)
	if got != topology.East {
		t.Fatalf("tie selected %v", got)
	}
}

func TestDBARUsesPathOccupancy(t *testing.T) {
	m := topology.NewMesh(8, 8)
	s := DBARSelector{Mesh: m, Regions: region.Single(m)}
	// Path east is congested, south clear.
	v := fakeView{
		free: map[topology.Dir]int{},
		path: map[topology.Dir][]int{
			topology.East:  {5, 5, 5},
			topology.South: {0, 0, 0},
		},
	}
	got := s.Select(0, 63, []topology.Dir{topology.East, topology.South}, v)
	if got != topology.South {
		t.Fatalf("selected %v", got)
	}
}

func TestDBARClipsAtRegionBoundary(t *testing.T) {
	m := topology.NewMesh(8, 8)
	regs := region.Halves(m)
	s := DBARSelector{Mesh: m, Regions: regs}
	// Packet at (0,0) heading to (7,7): 7 hops east of which only 3 stay
	// in the left half. Congestion beyond the boundary (hops 4+) must be
	// ignored: east reads as clear even though the far end is loaded.
	v := fakeView{
		free: map[topology.Dir]int{},
		path: map[topology.Dir][]int{
			topology.East:  {0, 0, 0, 9, 9, 9, 9}, // load only beyond boundary
			topology.South: {1, 1, 1, 1, 1, 1, 1},
		},
	}
	got := s.Select(0, 63, []topology.Dir{topology.East, topology.South}, v)
	if got != topology.East {
		t.Fatalf("selected %v: region clipping not applied", got)
	}
	// Without regions (nil), the full path counts and south wins.
	s2 := DBARSelector{Mesh: m}
	got = s2.Select(0, 63, []topology.Dir{topology.East, topology.South}, v)
	if got != topology.South {
		t.Fatalf("unclipped selected %v", got)
	}
}

func TestDBARClipsAtDestinationOffset(t *testing.T) {
	m := topology.NewMesh(8, 8)
	s := DBARSelector{Mesh: m, Regions: region.Single(m)}
	// Destination is 1 hop east, 6 south. Only the first east hop counts.
	dst := m.ID(topology.Coord{X: 1, Y: 6})
	v := fakeView{
		free: map[topology.Dir]int{},
		path: map[topology.Dir][]int{
			topology.East:  {1, 9, 9},
			topology.South: {2, 0, 0},
		},
	}
	got := s.Select(0, dst, []topology.Dir{topology.East, topology.South}, v)
	if got != topology.East {
		t.Fatalf("selected %v: offset clipping not applied", got)
	}
}

func TestDBARLocalTieBreak(t *testing.T) {
	m := topology.NewMesh(8, 8)
	s := DBARSelector{Mesh: m, Regions: region.Single(m), Depth: 5}
	v := fakeView{
		free: map[topology.Dir]int{topology.East: 0, topology.South: 5},
		path: map[topology.Dir][]int{},
	}
	got := s.Select(0, 63, []topology.Dir{topology.East, topology.South}, v)
	if got != topology.South {
		t.Fatalf("selected %v: local term ignored", got)
	}
}

func TestDBARSingleCandidate(t *testing.T) {
	m := topology.NewMesh(8, 8)
	s := DBARSelector{Mesh: m}
	v := fakeView{}
	if got := s.Select(0, 7, []topology.Dir{topology.East}, v); got != topology.East {
		t.Fatalf("selected %v", got)
	}
	if got := s.Select(5, 5, []topology.Dir{topology.Local}, v); got != topology.Local {
		t.Fatalf("selected %v", got)
	}
}

// xyStep is the dimension-ordered hop from cur toward dst (X first, then
// Y), or Local at dst: the escape direction, written out independently of
// the routing code under test.
func xyStep(m *topology.Mesh, cur, dst int) topology.Dir {
	cc, cd := m.Coord(cur), m.Coord(dst)
	switch {
	case cd.X > cc.X:
		return topology.East
	case cd.X < cc.X:
		return topology.West
	case cd.Y > cc.Y:
		return topology.South
	case cd.Y < cc.Y:
		return topology.North
	}
	return topology.Local
}

// refRoute is the Candidates + EscapeDir pair Route replaced, kept verbatim
// (on topology.MinimalDirs and xyStep, which Route does not use) as the
// reference the one-call form must reproduce: same candidates in the same
// order, same escape direction.
func refRoute(name string, m *topology.Mesh, cur, dst int) ([]topology.Dir, topology.Dir) {
	esc := xyStep(m, cur, dst)
	switch {
	case name == "XY":
		return []topology.Dir{esc}, esc
	case cur == dst:
		return []topology.Dir{topology.Local}, esc
	case name == "WestFirst" && m.Coord(dst).X < m.Coord(cur).X:
		return []topology.Dir{topology.West}, esc
	}
	return m.MinimalDirs(cur, dst, nil), esc
}

// TestRouteMatchesCandidatesAndEscapeDir: for every (cur, dst) pair on a
// square and a non-square mesh, every algorithm's Route equals the old
// two-call answer, and LBDR still refuses exactly the pairs it cannot route.
func TestRouteMatchesCandidatesAndEscapeDir(t *testing.T) {
	for _, m := range []*topology.Mesh{topology.NewMesh(8, 8), topology.NewMesh(5, 3)} {
		regs := region.Halves(m)
		lbdr, err := NewLBDR(regs, []int{0, m.N() - 1})
		if err != nil {
			t.Fatal(err)
		}
		algs := []struct {
			name string
			a    Algorithm
		}{{"XY", XY{Mesh: m}}, {"MinAdaptive", MinimalAdaptive{Mesh: m}}, {"WestFirst", WestFirst{Mesh: m}}, {"LBDR", lbdr}}
		for _, alg := range algs {
			a := alg.a
			for cur := 0; cur < m.N(); cur++ {
				for dst := 0; dst < m.N(); dst++ {
					if alg.name == "LBDR" && !lbdr.Supports(cur, dst) {
						func() {
							defer func() {
								if recover() == nil {
									t.Errorf("%dx%d LBDR routed unroutable %d->%d", m.W, m.H, cur, dst)
								}
							}()
							a.Route(m.Coord(cur), dst)
						}()
						continue
					}
					wantDirs, wantEsc := refRoute(alg.name, m, cur, dst)
					rt := a.Route(m.Coord(cur), dst)
					got := []topology.Dir{rt.First, rt.Second}[:rt.N]
					if !reflect.DeepEqual(got, wantDirs) || rt.Esc != wantEsc {
						t.Fatalf("%dx%d %s %d->%d: Route = %v esc %v, want %v esc %v",
							m.W, m.H, alg.name, cur, dst, got, rt.Esc, wantDirs, wantEsc)
					}
				}
			}
		}
	}
}
