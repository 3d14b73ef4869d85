package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rair/internal/msg"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Count() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty dist must be all zeros")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		d.Add(v)
	}
	if d.Count() != 4 || d.Mean() != 5 {
		t.Fatalf("count=%d mean=%v", d.Count(), d.Mean())
	}
	if d.Percentile(0) != 2 || d.Percentile(100) != 8 {
		t.Fatalf("min=%v max=%v", d.Percentile(0), d.Percentile(100))
	}
	if p := d.Percentile(50); p != 5 {
		t.Fatalf("median = %v", p)
	}
}

func TestDistAddAfterPercentile(t *testing.T) {
	var d Dist
	d.Add(1)
	d.Add(3)
	_ = d.Percentile(50)
	d.Add(2)
	if p := d.Percentile(50); p != 2 {
		t.Fatalf("median after re-add = %v", p)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestDistPercentileMonotone(t *testing.T) {
	if err := quick.Check(func(vals []float64, a, b uint8) bool {
		var d Dist
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v)
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		sort.Float64s(clean)
		v1, v2 := d.Percentile(p1), d.Percentile(p2)
		return v1 <= v2 && v1 >= clean[0] && v2 <= clean[len(clean)-1]
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func pkt(app int, created, ejected int64, global bool, size int) *msg.Packet {
	return &msg.Packet{
		App: app, CreatedAt: created, InjectedAt: created + 2, EjectedAt: ejected,
		Global: global, Size: size, Hops: 3, Class: msg.ClassRequest,
	}
}

func TestCollectorWindow(t *testing.T) {
	c := NewCollector(100, 200)
	c.OnEject(pkt(0, 50, 90, false, 1), 90)    // before warmup: dropped
	c.OnEject(pkt(0, 150, 190, false, 1), 190) // inside: counted
	c.OnEject(pkt(0, 250, 300, false, 1), 300) // after window: dropped
	c.OnEject(pkt(0, 199, 400, false, 1), 400) // created inside, late delivery: counted
	if c.Packets() != 2 {
		t.Fatalf("measured %d packets", c.Packets())
	}
	if c.APL() != (40+201)/2.0 {
		t.Fatalf("APL = %v", c.APL())
	}
}

func TestCollectorNoUpperBound(t *testing.T) {
	c := NewCollector(0, 0)
	c.OnEject(pkt(0, 1e6, 1e6+10, false, 1), 1e6+10)
	if c.Packets() != 1 {
		t.Fatal("MeasureEnd=0 must mean unbounded")
	}
}

func TestCollectorBreakdowns(t *testing.T) {
	c := NewCollector(0, 0)
	c.OnEject(pkt(0, 0, 10, false, 1), 10)
	c.OnEject(pkt(0, 0, 20, true, 5), 20)
	c.OnEject(pkt(1, 0, 40, true, 5), 40)
	if got := c.Apps(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("apps %v", got)
	}
	if c.App(0).Mean() != 15 || c.App(1).Mean() != 40 {
		t.Fatalf("per-app means %v %v", c.App(0).Mean(), c.App(1).Mean())
	}
	if c.App(9).Count() != 0 {
		t.Fatal("unknown app must be empty")
	}
	if c.Regional().Count() != 1 || c.Global().Count() != 2 || c.Regional().Mean() != 10 || c.Global().Mean() != 30 {
		t.Fatal("kind breakdown wrong")
	}
	if c.Network().Count() != 3 || c.Hops().Mean() != 3 {
		t.Fatal("network/hops dist wrong")
	}
}

func TestFlitThroughput(t *testing.T) {
	c := NewCollector(0, 100)
	c.OnEject(pkt(0, 10, 30, false, 5), 30)
	c.OnEject(pkt(0, 20, 50, false, 5), 50)
	// 10 flits over 100 cycles on a 2-node network = 0.05 flits/node/cycle.
	if tput := c.FlitThroughput(2); tput != 0.05 {
		t.Fatalf("throughput = %v", tput)
	}
	if NewCollector(0, 0).FlitThroughput(2) != 0 {
		t.Fatal("unbounded window has no throughput")
	}
}

func TestReductionAndSlowdown(t *testing.T) {
	if r := Reduction(100, 80); r != 0.2 {
		t.Fatalf("Reduction = %v", r)
	}
	if r := Reduction(0, 5); r != 0 {
		t.Fatal("Reduction with zero baseline")
	}
	if s := Slowdown(50, 100); s != 2 {
		t.Fatalf("Slowdown = %v", s)
	}
	if s := Slowdown(0, 100); s != 0 {
		t.Fatal("Slowdown with zero baseline")
	}
}

func TestHistogram(t *testing.T) {
	var d Dist
	if h := d.Histogram(5); h != "(no samples)\n" {
		t.Fatalf("empty histogram %q", h)
	}
	d.Add(5)
	d.Add(5)
	if h := d.Histogram(5); !strings.Contains(h, "all 2 samples") {
		t.Fatalf("degenerate histogram:\n%s", h)
	}
	for i := 0; i < 100; i++ {
		d.Add(float64(i))
	}
	h := d.Histogram(10)
	if lines := strings.Count(h, "\n"); lines != 10 {
		t.Fatalf("histogram has %d lines:\n%s", lines, h)
	}
	if !strings.Contains(h, "#") {
		t.Fatalf("no bars:\n%s", h)
	}
	// Clamps.
	if strings.Count(d.Histogram(0), "\n") != 1 {
		t.Fatal("bins not clamped low")
	}
	if strings.Count(d.Histogram(1000), "\n") != 40 {
		t.Fatal("bins not clamped high")
	}
}

func TestDistMerge(t *testing.T) {
	var a, b Dist
	for _, v := range []float64{1, 2, 3} {
		a.Add(v)
	}
	for _, v := range []float64{10, 20} {
		b.Add(v)
	}
	a.Merge(&b)
	if a.Count() != 5 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if got, want := a.Mean(), 36.0/5; got != want {
		t.Fatalf("merged mean = %v, want %v", got, want)
	}
	if got := a.Percentile(100); got != 20 {
		t.Fatalf("merged max = %v, want 20", got)
	}
	// Merge must leave the source untouched.
	if b.Count() != 2 || b.Mean() != 15 {
		t.Fatalf("source modified by merge: count=%d mean=%v", b.Count(), b.Mean())
	}
	// Merging an empty Dist is a no-op.
	var empty Dist
	a.Merge(&empty)
	if a.Count() != 5 {
		t.Fatal("merge of empty dist changed count")
	}
}
