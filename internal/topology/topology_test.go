package topology

import (
	"testing"
	"testing/quick"
)

func TestCoordIDRoundTrip(t *testing.T) {
	m := NewMesh(8, 8)
	for id := 0; id < m.N(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("round trip %d -> %d", id, got)
		}
	}
}

func TestRowMajorLayout(t *testing.T) {
	m := NewMesh(4, 3)
	if m.N() != 12 {
		t.Fatalf("N = %d", m.N())
	}
	if c := m.Coord(5); c != (Coord{1, 1}) {
		t.Fatalf("Coord(5) = %v", c)
	}
	if id := m.ID(Coord{3, 2}); id != 11 {
		t.Fatalf("ID(3,2) = %d", id)
	}
}

func TestNeighborEdges(t *testing.T) {
	m := NewMesh(3, 3)
	// center node 4 has all four neighbors
	if m.Neighbor(4, North) != 1 || m.Neighbor(4, South) != 7 ||
		m.Neighbor(4, East) != 5 || m.Neighbor(4, West) != 3 {
		t.Fatal("center neighbors wrong")
	}
	// corner 0 lacks north/west
	if m.Neighbor(0, North) != -1 || m.Neighbor(0, West) != -1 {
		t.Fatal("corner should lack north/west neighbors")
	}
	if m.Neighbor(0, Local) != -1 {
		t.Fatal("Local has no neighbor")
	}
}

func TestNeighborSymmetry(t *testing.T) {
	m := NewMesh(5, 4)
	for id := 0; id < m.N(); id++ {
		for _, d := range []Dir{North, East, South, West} {
			n := m.Neighbor(id, d)
			if n == -1 {
				continue
			}
			if back := m.Neighbor(n, d.Opposite()); back != id {
				t.Fatalf("asymmetric link %d --%v--> %d --%v--> %d", id, d, n, d.Opposite(), back)
			}
		}
	}
}

func TestOppositePanicsOnLocal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Local.Opposite()
}

func TestDistance(t *testing.T) {
	m := NewMesh(8, 8)
	if d := m.Distance(0, 63); d != 14 {
		t.Fatalf("corner distance = %d", d)
	}
	if d := m.Distance(10, 10); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

// Property: following any minimal direction decreases distance by exactly 1.
func TestMinimalDirsDecreaseDistance(t *testing.T) {
	m := NewMesh(8, 8)
	if err := quick.Check(func(a, b uint8) bool {
		cur, dst := int(a)%64, int(b)%64
		dirs := m.MinimalDirs(cur, dst, nil)
		if cur == dst {
			return len(dirs) == 0
		}
		if len(dirs) == 0 || len(dirs) > 2 {
			return false
		}
		for _, d := range dirs {
			n := m.Neighbor(cur, d)
			if n == -1 || m.Distance(n, dst) != m.Distance(cur, dst)-1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := NewMesh(8, 8)
	for id := 0; id < m.N(); id++ {
		if m.Transpose(m.Transpose(id)) != id {
			t.Fatalf("transpose not an involution at %d", id)
		}
	}
	if m.Transpose(m.ID(Coord{2, 5})) != m.ID(Coord{5, 2}) {
		t.Fatal("transpose mapping wrong")
	}
}

func TestTransposePanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMesh(4, 2).Transpose(0)
}

func TestBitComplementInvolution(t *testing.T) {
	m := NewMesh(8, 8)
	for id := 0; id < m.N(); id++ {
		if m.BitComplement(m.BitComplement(id)) != id {
			t.Fatalf("bit complement not an involution at %d", id)
		}
	}
	if m.BitComplement(0) != 63 {
		t.Fatal("BitComplement(0) != 63")
	}
}

func TestCorners(t *testing.T) {
	m := NewMesh(8, 8)
	c := m.Corners()
	want := [4]int{0, 7, 56, 63}
	if c != want {
		t.Fatalf("Corners = %v, want %v", c, want)
	}
}

func TestDirStrings(t *testing.T) {
	if Local.String() != "Local" || West.String() != "West" {
		t.Fatal("Dir.String wrong")
	}
	if Dir(9).String() != "Dir(9)" {
		t.Fatal("out-of-range Dir.String wrong")
	}
}
