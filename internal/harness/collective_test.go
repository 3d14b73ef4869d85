package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rair/internal/collective"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/obs"
	"rair/internal/region"
	"rair/internal/stats"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// collEvent is one observed collective action: a send (issue=true) or a
// delivery, attributed to the acting rank.
type collEvent struct {
	issue bool
	rank  int
	j     int // per-rank send index (sends only)
	cycle int64
}

// traceCollective runs one collective alone on a 4x4 quadrant network and
// returns the send/delivery event sequence in observation order.
func traceCollective(t *testing.T, op collective.Op, workers int, chunk int) []collEvent {
	t.Helper()
	mesh := topology.NewMesh(4, 4)
	regs := region.Quadrants(mesh)
	nodes := regs.Nodes(3)
	ranks := collective.Ranks(mesh, nodes)
	rankOf := map[int]int{}
	for r, node := range ranks {
		rankOf[node] = r
	}
	scheme := RAIR("RA_RAIR")
	cfg := synthCfg()

	var events []collEvent
	sent := make([]int, len(ranks))
	var src *collective.Source
	net := network.New(network.Params{
		Router:  cfg,
		Regions: regs,
		Alg:     scheme.Alg(mesh),
		Sel:     scheme.Sel(regs, cfg),
		Policy:  scheme.Policy,
		Workers: workers,
		OnEject: func(p *msg.Packet, now int64) {
			events = append(events, collEvent{rank: rankOf[p.Dst], cycle: now})
			src.Deliver(p, now)
		},
	})
	defer net.Close()
	src = collective.NewSource(collective.Spec{
		Op: op, App: 3, Nodes: nodes, Mesh: mesh,
		ChunkPackets: chunk, Jitter: 4, Gap: 8,
	}, 9, func(node int, p *msg.Packet, now int64) {
		r := rankOf[node]
		events = append(events, collEvent{issue: true, rank: r, j: sent[r], cycle: now})
		sent[r]++
		net.Inject(p, now)
	})
	for now := int64(0); now < 20000 && src.Progress().Rounds < 2; now++ {
		src.Tick(now)
		net.Tick(now)
	}
	if prog := src.Progress(); prog.Rounds != 2 {
		t.Fatalf("op %v workers %d: %d rounds completed, want 2 (%+v)", op, workers, prog.Rounds, prog)
	}
	return events
}

// TestCollectiveDependencyOrder drives each collective through a real
// network at workers 1, 2 and 4 and checks, from the outside, that every
// send respects its dependency threshold — a rank has received at least
// need(j) packets strictly before the cycle it issues packet j — and that
// the whole event sequence is bit-identical across worker counts.
func TestCollectiveDependencyOrder(t *testing.T) {
	const chunk = 2
	n := 4 // quadrant of a 4x4 mesh
	need := func(op collective.Op, rank, j int) int {
		switch op {
		case collective.TreeBroadcast:
			if rank == 0 {
				return 0
			}
			return j/len(collective.TreeChildren(n, rank)) + 1
		default: // ring and shuffle: one chunk of lookahead
			return j - chunk + 1
		}
	}
	for _, op := range []collective.Op{collective.RingAllReduce, collective.TreeBroadcast, collective.AllToAll} {
		t.Run(op.String(), func(t *testing.T) {
			ref := traceCollective(t, op, 1, chunk)
			recvBefore := make(map[int]int) // rank -> deliveries seen so far
			var lastCycle int64
			for _, ev := range ref {
				if ev.cycle < lastCycle {
					t.Fatalf("events out of order: cycle %d after %d", ev.cycle, lastCycle)
				}
				lastCycle = ev.cycle
				if !ev.issue {
					recvBefore[ev.rank]++
					continue
				}
				// Deliveries at the send's own cycle happen after Tick, so
				// they must not be needed for this send; but recvBefore may
				// include same-cycle deliveries already recorded. Guard by
				// only counting deliveries from strictly earlier cycles:
				// same-cycle deliveries are ejections of net.Tick(now),
				// which runs after src.Tick(now) issued this send.
				if got := recvBefore[ev.rank] - sameCycleDeliveries(ref, ev); got < need(op, ev.rank, ev.j) {
					t.Fatalf("rank %d sent packet %d at cycle %d with only %d deliveries, need %d",
						ev.rank, ev.j, ev.cycle, got, need(op, ev.rank, ev.j))
				}
			}
			wholeRound := 0
			for _, ev := range ref {
				if !ev.issue {
					wholeRound++
				}
			}
			if wholeRound == 0 {
				t.Fatal("no deliveries observed")
			}
			for _, workers := range []int{2, 4} {
				got := traceCollective(t, op, workers, chunk)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("op %v: event sequence at workers=%d diverges from serial", op, workers)
				}
			}
		})
	}
}

// sameCycleDeliveries counts deliveries to ev.rank recorded at ev.cycle
// before ev appears in the trace — impossible by construction (sends happen
// in src.Tick, deliveries in the later net.Tick), so a nonzero count means
// the coordinator ordering contract broke.
func sameCycleDeliveries(events []collEvent, ev collEvent) int {
	n := 0
	for _, e := range events {
		if e == ev {
			break
		}
		if !e.issue && e.rank == ev.rank && e.cycle == ev.cycle {
			n++
		}
	}
	return n
}

// collectorSurface summarizes the comparable surface of a victim collector.
func collectorSurface(c *stats.Collector) string {
	s := fmt.Sprintf("pkts=%d apl=%v net=%v p99=%v", c.Packets(), c.APL(), c.Network().Mean(), c.Total().Percentile(99))
	for _, app := range c.Apps() {
		s += fmt.Sprintf(" app%d=%v", app, c.App(app).Mean())
	}
	return s
}

// TestCollectiveRunDeterminism: a co-run with a collective must produce
// bit-identical victim statistics and collective progress across tick-engine
// worker counts — the determinism-matrix entry for the closed-loop source.
func TestCollectiveRunDeterminism(t *testing.T) {
	regs, apps, spec := CollectiveScenario(collective.RingAllReduce)
	run := func(workers int) (*stats.Collector, collective.Progress) {
		var src *collective.Source
		col := Run(withCollective(RunConfig{
			Regions: regs, Router: synthCfg(), Apps: apps,
			Scheme: RAIR("RA_RAIR"), Dur: testDur(), Seed: 7, Workers: workers,
		}, spec, &src))
		return col, src.Progress()
	}
	ref, refProg := run(0)
	if ref.Packets() == 0 {
		t.Fatal("reference run delivered no victim packets")
	}
	if refProg.Rounds == 0 || refProg.Phases[0].Delivered == 0 {
		t.Fatalf("reference collective made no progress: %+v", refProg)
	}
	want := collectorSurface(ref)

	for _, workers := range []int{2, 4} {
		got, prog := run(workers)
		if s := collectorSurface(got); s != want {
			t.Fatalf("workers=%d: victim stats diverge\n got %s\nwant %s", workers, s, want)
		}
		if !reflect.DeepEqual(prog, refProg) {
			t.Fatalf("workers=%d: collective progress diverges\n got %+v\nwant %+v", workers, prog, refProg)
		}
	}
}

// TestCollectiveAttributionConservation: with a collective as the foreign
// aggressor and attribution telemetry on, the decomposition rows must
// balance exactly (inject + zero-load + cause buckets == total), the
// collective's blame must appear as its app's row, and the report must be
// byte-identical across worker counts.
func TestCollectiveAttributionConservation(t *testing.T) {
	regs, apps, spec := CollectiveScenario(collective.RingAllReduce)
	run := func(workers int) []byte {
		tel := telemetry.NewCollector(telemetry.Config{Window: 128, Attribution: true})
		var src *collective.Source
		Run(withCollective(RunConfig{
			Regions: regs, Router: synthCfg(), Apps: apps,
			Scheme: RORR(), Dur: testDur(), Seed: 13, Workers: workers,
			Telemetry: tel,
		}, spec, &src))
		attr := tel.Attribution()
		if attr == nil {
			t.Fatal("no attribution report")
		}
		if err := attr.Conservation(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sawApp := false
		for _, row := range attr.Rows {
			if row.App == spec.App {
				sawApp = true
			}
		}
		if !sawApp {
			t.Fatal("attribution has no row for the collective's app")
		}
		for _, ph := range src.Progress().Phases {
			if ph.Delivered == 0 {
				t.Fatalf("phase %s delivered nothing", ph.Name)
			}
		}
		var buf bytes.Buffer
		if err := obs.WriteJSON(&buf, tel.Report()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSON(&buf, attr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run(0)
	for _, workers := range []int{2, 4} {
		if got := run(workers); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: telemetry report differs from serial", workers)
		}
	}
}
