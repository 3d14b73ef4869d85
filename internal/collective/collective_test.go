package collective

import (
	"testing"
	"testing/quick"

	"rair/internal/msg"
	"rair/internal/topology"
)

// rankCount maps an arbitrary fuzz byte onto a usable participant count.
func rankCount(b uint8) int { return int(b)%62 + 2 }

// TestRingStepPermutation: every AllReduce step's send set is a permutation
// of the ranks with no self-sends — each rank sends exactly once and
// receives exactly once per step.
func TestRingStepPermutation(t *testing.T) {
	prop := func(b uint8) bool {
		n := rankCount(b)
		seen := make([]bool, n)
		for r := 0; r < n; r++ {
			d := RingDst(n, r)
			if d == r || d < 0 || d >= n || seen[d] {
				return false
			}
			seen[d] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllToAllStepPermutation: each shuffle step s in [1, n) is a
// self-send-free bijection on the ranks.
func TestAllToAllStepPermutation(t *testing.T) {
	prop := func(b uint8) bool {
		n := rankCount(b)
		for s := 1; s < n; s++ {
			seen := make([]bool, n)
			for r := 0; r < n; r++ {
				d := AllToAllDst(n, r, s)
				if d == r || d < 0 || d >= n || seen[d] {
					return false
				}
				seen[d] = true
			}
			for _, ok := range seen {
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTreeReachesAll: the binary tree spans all n ranks from the root in
// exactly n-1 parent→child messages, each child under its binary-heap parent.
func TestTreeReachesAll(t *testing.T) {
	prop := func(b uint8) bool {
		n := rankCount(b)
		reached := make([]bool, n)
		reached[0] = true
		msgs, frontier := 0, []int{0}
		for len(frontier) > 0 {
			r := frontier[0]
			frontier = frontier[1:]
			for _, c := range TreeChildren(n, r) {
				if reached[c] || (c-1)/2 != r {
					return false
				}
				reached[c] = true
				msgs++
				frontier = append(frontier, c)
			}
		}
		if msgs != n-1 {
			return false
		}
		for _, ok := range reached {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRanksSnake: Ranks is a permutation of the input nodes, and on a full
// rectangular region consecutive ranks are mesh neighbors (the ring maps
// onto physical links).
func TestRanksSnake(t *testing.T) {
	prop := func(wb, hb uint8) bool {
		w, h := int(wb)%7+1, int(hb)%7+1
		if w*h < 2 {
			w = 2
		}
		m := topology.NewMesh(w, h)
		nodes := make([]int, m.N())
		for i := range nodes {
			nodes[i] = i
		}
		ranks := Ranks(m, nodes)
		seen := make([]bool, m.N())
		for _, node := range ranks {
			if node < 0 || node >= m.N() || seen[node] {
				return false
			}
			seen[node] = true
		}
		for i := 1; i < len(ranks); i++ {
			a, b := m.Coord(ranks[i-1]), m.Coord(ranks[i])
			if abs(a.X-b.X)+abs(a.Y-b.Y) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// loopback runs one source round against an instant-delivery network:
// inject hands the packet straight back to Deliver, so the dependency
// thresholds resolve as fast as Tick can issue sends. Returns per-node send
// and receive counts and fails the test on any self-send or out-of-set
// destination.
func loopback(t *testing.T, op Op, mesh *topology.Mesh, nodes []int, chunk int) (sent, recvd map[int]int64, prog Progress) {
	t.Helper()
	inSet := map[int]bool{}
	for _, n := range nodes {
		inSet[n] = true
	}
	sent, recvd = map[int]int64{}, map[int]int64{}
	var src *Source
	src = NewSource(Spec{
		Op: op, App: 1, Nodes: nodes, Mesh: mesh,
		ChunkPackets: chunk,
	}, 5, func(node int, p *msg.Packet, now int64) {
		if p.Src == p.Dst {
			t.Fatalf("self-send from node %d", node)
		}
		if !inSet[p.Src] || !inSet[p.Dst] {
			t.Fatalf("packet %d>%d leaves the participant set", p.Src, p.Dst)
		}
		sent[p.Src]++
		recvd[p.Dst]++
		p.EjectedAt = now
		src.Deliver(p, now)
	})
	for now := int64(0); now < 10000 && src.Progress().Rounds == 0; now++ {
		src.Tick(now)
	}
	prog = src.Progress()
	if prog.Rounds != 1 {
		t.Fatalf("round did not complete: %+v", prog)
	}
	return sent, recvd, prog
}

// TestMessageCounts: per round, the ring sends 2(n-1)·C packets per rank,
// the tree exactly (n-1)·C in total (reaching every non-root rank with C
// packets), and the shuffle exactly n·(n-1)·C.
// totalSent sums the phase send counters.
func totalSent(p Progress) int64 {
	var n int64
	for _, ph := range p.Phases {
		n += ph.Sent
	}
	return n
}

func TestMessageCounts(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	nodes := make([]int, mesh.N())
	for i := range nodes {
		nodes[i] = i
	}
	n, chunk := int64(len(nodes)), 3
	c := int64(chunk)
	sent, recvd, prog := loopback(t, RingAllReduce, mesh, nodes, chunk)
	for _, node := range nodes {
		if sent[node] != 2*(n-1)*c || recvd[node] != 2*(n-1)*c {
			t.Fatalf("ring node %d: sent %d recvd %d, want %d", node, sent[node], recvd[node], 2*(n-1)*c)
		}
	}
	if got := totalSent(prog); got != n*2*(n-1)*c {
		t.Fatalf("ring total %d, want %d", got, n*2*(n-1)*c)
	}
	if prog.Phases[0].Sent != prog.Phases[1].Sent || prog.Phases[0].Sent != n*(n-1)*c {
		t.Fatalf("ring phases must split evenly: %+v", prog.Phases)
	}

	sent, recvd, prog = loopback(t, TreeBroadcast, mesh, nodes, chunk)
	if got := totalSent(prog); got != (n-1)*c {
		t.Fatalf("tree total %d, want %d", got, (n-1)*c)
	}
	root := Ranks(mesh, nodes)[0]
	for _, node := range nodes {
		want := c
		if node == root {
			want = 0
		}
		if recvd[node] != want {
			t.Fatalf("tree node %d received %d, want %d", node, recvd[node], want)
		}
	}
	if sent[root] == 0 {
		t.Fatal("tree root sent nothing")
	}

	sent, recvd, prog = loopback(t, AllToAll, mesh, nodes, chunk)
	for _, node := range nodes {
		if sent[node] != (n-1)*c || recvd[node] != (n-1)*c {
			t.Fatalf("a2a node %d: sent %d recvd %d, want %d", node, sent[node], recvd[node], (n-1)*c)
		}
	}
	if got := totalSent(prog); got != n*(n-1)*c {
		t.Fatalf("a2a total %d, want %d", got, n*(n-1)*c)
	}
}

// TestOpNames pins the names reports print for each operation.
func TestOpNames(t *testing.T) {
	for op, want := range map[Op]string{
		RingAllReduce: "allreduce", TreeBroadcast: "bcast", AllToAll: "a2a", AllToAll + 1: "Op(3)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

// TestNewSourcePanics: configuration errors fail loudly.
func TestNewSourcePanics(t *testing.T) {
	mesh := topology.NewMesh(2, 2)
	for name, spec := range map[string]Spec{
		"nil mesh":  {Op: RingAllReduce, Nodes: []int{0, 1}},
		"one node":  {Op: RingAllReduce, Nodes: []int{0}, Mesh: mesh},
		"duplicate": {Op: RingAllReduce, Nodes: []int{0, 1, 1}, Mesh: mesh},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			NewSource(spec, 1, nil)
		}()
	}
}
