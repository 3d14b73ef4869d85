package router

import (
	"fmt"
	"math/rand"
	"testing"

	"rair/internal/topology"
)

// TestOccupancyHistoryMatchesNaive holds History to a naive record of every
// node's occupancy at the end of every cycle. Each node follows a schedule
// of cycles it is ticked in (a ticked node's occupancy may change, an idle
// one's stands still), the ticked ones publish at the start of the next
// cycle through Publish, as the engine's links phase does, from their
// ports' buffered-flit counts, and before each cycle's compute
// every node's view along every direction over every path length must read
// as the record: hop k+1 reads lag k, so the lengths up to max(W,H)−1 read
// every lag from 0 to max(W,H)−2, from cycle 0 on. The schedules cover a node
// changing every cycle, quiet gaps longer than the ring, a node ticked at
// random, one that wakes only late, and one never ticked; the meshes cover
// rings of 1 to 8 entries, and unwired links cut some paths short.
func TestOccupancyHistoryMatchesNaive(t *testing.T) {
	for _, dims := range [][2]int{{2, 1}, {3, 2}, {4, 4}, {5, 3}, {9, 2}} {
		mesh := topology.NewMesh(dims[0], dims[1])
		t.Run(fmt.Sprintf("%dx%d", mesh.W, mesh.H), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mesh.N())))
			// Bare routers: ports with a buffered-flit count, and an output
			// wire wherever wired says, a missing one standing for a
			// chiplet tile edge.
			routers := make([]*Router, mesh.N())
			wired := make([][topology.NumDirs]bool, mesh.N())
			soa := &SoA{}
			for v := range routers {
				r := &Router{soa: soa, node: int32(v), in: new([topology.NumDirs]InputPort), out: new([topology.NumDirs]OutputPort)}
				for d := range r.in {
					if wired[v][d] = mesh.Neighbor(v, topology.Dir(d)) >= 0 && rng.Intn(8) > 0; wired[v][d] {
						r.out[d].wire.s = &FlitSlab{}
					}
				}
				routers[v] = r
			}
			h := NewHistory(mesh, routers)
			lag := max(mesh.W, mesh.H) - 1
			isTicked := func(v int, c int64) bool {
				switch v % 5 {
				case 0:
					return true
				case 1: // bursts of 3 between gaps of lag+4
					return c%int64(lag+7) < 3
				case 2:
					return rng.Intn(3) == 0
				case 3:
					return c > 40 && c%11 < 4
				}
				return false
			}
			const cycles = 120
			occ := make([][][topology.NumDirs]int, cycles) // the naive record, by d
			ticked := make([]uint64, (mesh.N()+63)/64)
			for now := int64(0); now < cycles; now++ {
				h.Advance(now)
				h.Publish(routers, ticked)
				for v, r := range routers {
					for d := topology.North; d < topology.NumDirs; d++ {
						for hops := 0; hops <= lag+1; hops++ {
							if got, want := r.PathOccupancy(d, hops), naivePath(mesh, wired, occ, now, v, d, hops); got != want {
								t.Fatalf("cycle %d: node %d sees %d along %v over %d hops, want %d", now, v, got, d, hops, want)
							}
						}
					}
				}
				// The cycle's compute: a ticked router's counts may change.
				occ[now] = make([][topology.NumDirs]int, mesh.N())
				clear(ticked)
				for v, r := range routers {
					if !isTicked(v, now) {
						if now > 0 {
							occ[now][v] = occ[now-1][v]
						}
						continue
					}
					ticked[v>>6] |= 1 << (v & 63)
					for d := topology.North; d < topology.NumDirs; d++ {
						if rng.Intn(4) > 0 {
							r.in[d.Opposite()].bufFlits = int32(rng.Intn(64 * maxSlots))
						}
						occ[now][v][d] = int(r.in[d.Opposite()].bufFlits)
					}
				}
			}
		})
	}
}

// naivePath is DBAR's view from node v in cycle now, read off the record:
// the router k+1 hops away in d as at the end of cycle now−1−k, for k below
// min(hops, max(W,H)−1), stopping at cycle 0 and at the first unwired link.
func naivePath(mesh *topology.Mesh, wired [][topology.NumDirs]bool, occ [][][topology.NumDirs]int, now int64, v int, d topology.Dir, hops int) int {
	sum := 0
	for k := 0; k < min(hops, max(mesh.W, mesh.H)-1); k++ {
		c := now - 1 - int64(k)
		if c < 0 || !wired[v][d] {
			break
		}
		v = mesh.Neighbor(v, d)
		sum += occ[c][v][d]
	}
	return sum
}
