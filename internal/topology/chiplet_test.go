package topology

import "testing"

func TestChipletsChipOf(t *testing.T) {
	cs := NewChiplets(2, 2, 4) // 8x8 global mesh, 4 tiles
	m := cs.Mesh()
	if m.W != 8 || m.H != 8 {
		t.Fatalf("global mesh = %dx%d, want 8x8", m.W, m.H)
	}
	if got := cs.Chips(); got != 4 {
		t.Fatalf("Chips() = %d, want 4", got)
	}
	// Row-major tile numbering over the package grid.
	cases := []struct {
		x, y, chip int
	}{
		{0, 0, 0}, {3, 3, 0}, {4, 0, 1}, {7, 3, 1},
		{0, 4, 2}, {3, 7, 2}, {4, 4, 3}, {7, 7, 3},
	}
	for _, c := range cases {
		id := m.ID(Coord{X: c.x, Y: c.y})
		if got := cs.ChipOf(id); got != c.chip {
			t.Errorf("ChipOf(%d,%d) = %d, want %d", c.x, c.y, got, c.chip)
		}
	}
	if !cs.SameChip(m.ID(Coord{X: 0, Y: 0}), m.ID(Coord{X: 3, Y: 3})) {
		t.Error("(0,0) and (3,3) should share a chip")
	}
	if cs.SameChip(m.ID(Coord{X: 3, Y: 0}), m.ID(Coord{X: 4, Y: 0})) {
		t.Error("(3,0) and (4,0) straddle a tile edge")
	}
}

func TestChipletsGateway(t *testing.T) {
	cs := NewChiplets(2, 2, 4)
	m := cs.Mesh()
	// Each tile's gateway is its corner nearest the package center: for a
	// 2x2 package of 4x4 tiles those are the four nodes around (3.5, 3.5).
	want := []Coord{{X: 3, Y: 3}, {X: 4, Y: 3}, {X: 3, Y: 4}, {X: 4, Y: 4}}
	for chip, w := range want {
		gw := cs.Gateway(chip)
		if got := m.Coord(gw); got != w {
			t.Errorf("Gateway(%d) = %v, want %v", chip, got, w)
		}
		if cs.ChipOf(gw) != chip {
			t.Errorf("Gateway(%d) lies outside its own tile", chip)
		}
	}
	// Asymmetric package: gateways still land inside their own tiles.
	wide := NewChiplets(3, 1, 5)
	for chip := 0; chip < wide.Chips(); chip++ {
		if wide.ChipOf(wide.Gateway(chip)) != chip {
			t.Errorf("3x1 package: Gateway(%d) outside its tile", chip)
		}
	}
}

func TestChipletsTileOrigin(t *testing.T) {
	cs := NewChiplets(3, 2, 4)
	for chip := 0; chip < cs.Chips(); chip++ {
		o := cs.TileOrigin(chip)
		if o.X%cs.K != 0 || o.Y%cs.K != 0 {
			t.Errorf("TileOrigin(%d) = %v not tile-aligned", chip, o)
		}
		if got := cs.ChipOf(cs.Mesh().ID(o)); got != chip {
			t.Errorf("TileOrigin(%d) maps to chip %d", chip, got)
		}
	}
}

func TestChipletsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewChiplets(0, 1, 4) },
		func() { NewChiplets(1, 1, 4) }, // one tile is just a mesh
		func() { NewChiplets(2, 2, 1) }, // 1x1 tile has no network
		func() { NewChiplets(2, 2, 4).Gateway(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
