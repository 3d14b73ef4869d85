package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rair/internal/msg"
)

// retained is the representation Dist replaced — every sample kept, sorted
// for each read — and the oracle the counting histogram must equal bit for
// bit.
type retained struct {
	samples []float64
	sum     float64
}

func (r *retained) add(v float64) { r.samples, r.sum = append(r.samples, v), r.sum+v }

func (r *retained) merge(o *retained) {
	r.samples, r.sum = append(r.samples, o.samples...), r.sum+o.sum
}

func (r *retained) mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / float64(len(r.samples))
}

func (r *retained) percentile(p float64) float64 {
	s := append([]float64(nil), r.samples...)
	sort.Float64s(s)
	switch {
	case len(s) == 0:
		return 0
	case p <= 0:
		return s[0]
	case p >= 100:
		return s[len(s)-1]
	}
	idx := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(idx)), int(math.Ceil(idx))
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func (r *retained) histogram(bins int) string {
	if len(r.samples) == 0 {
		return "(no samples)\n"
	}
	bins = min(max(bins, 1), 40)
	lo, hi := r.percentile(0), r.percentile(100)
	lo += 0 // a -0 sample prints as the 0 Dist keeps; every other reader compares with ==
	width := (hi - lo) / float64(bins)
	if width <= 0 {
		return fmt.Sprintf("%8.1f | all %d samples\n", lo, len(r.samples))
	}
	counts := make([]int, bins)
	for _, v := range r.samples {
		counts[min(int((v-lo)/width), bins-1)]++
	}
	maxCount := 0
	for _, c := range counts {
		maxCount = max(maxCount, c)
	}
	var sb strings.Builder
	for b, c := range counts {
		fmt.Fprintf(&sb, "%8.1f-%8.1f |%-50s %d\n",
			lo+float64(b)*width, lo+float64(b+1)*width, strings.Repeat("#", c*50/maxCount), c)
	}
	return sb.String()
}

var oraclePercentiles = []float64{0, 0.1, 25, 50, 95, 99, 99.9, 100}

// sameAsRetained reports the first reader on which d and the oracle differ.
func sameAsRetained(d *Dist, r *retained, extra ...float64) error {
	if d.Count() != len(r.samples) {
		return fmt.Errorf("Count = %d, oracle %d", d.Count(), len(r.samples))
	}
	if got, want := d.Mean(), r.mean(); got != want {
		return fmt.Errorf("Mean = %v, oracle %v", got, want)
	}
	for _, p := range append(extra, oraclePercentiles...) {
		if got, want := d.Percentile(p), r.percentile(p); got != want {
			return fmt.Errorf("Percentile(%v) = %v, oracle %v", p, got, want)
		}
	}
	if got, want := d.Histogram(12), r.histogram(12); got != want {
		return fmt.Errorf("Histogram(12) =\n%soracle\n%s", got, want)
	}
	return nil
}

// multiset draws up to 400 samples mixing everything Dist stores differently:
// small whole values with heavy repeats (latencies), whole values on both
// sides of the dense cap, fractions, quarter steps that repeat, negatives.
func multiset(rng *rand.Rand) []float64 {
	vals := make([]float64, 1+rng.Intn(400))
	for i := range vals {
		switch rng.Intn(7) {
		case 0, 1:
			vals[i] = float64(rng.Intn(300))
		case 2:
			vals[i] = float64(denseCap - 3 + rng.Intn(6))
		case 3:
			vals[i] = float64(rng.Intn(4 * denseCap))
		case 4:
			vals[i] = rng.NormFloat64() * 100
		case 5:
			vals[i] = float64(rng.Intn(40)-20) / 4
		case 6:
			vals[i] = -float64(rng.Intn(50))
		}
	}
	return vals
}

func fill(vals []float64) (*Dist, *retained) {
	d, r := &Dist{}, &retained{}
	for _, v := range vals {
		d.Add(v)
		r.add(v)
	}
	return d, r
}

// TestDistMatchesRetainedSamples: every reader of the counting histogram
// equals the retained-sample oracle with ==, after Add and after Merge in
// either order, and Merge leaves its source alone.
func TestDistMatchesRetainedSamples(t *testing.T) {
	fixed := [][]float64{
		nil,
		{7.5},
		{5, 5, 5, 5},
		{-3, -3, -1.5, 0, 0, 2},
		{denseCap - 1, denseCap, denseCap + 0.5, denseCap - 1},
		{0.1, 0.2, 0.3, 1e-300, 1e300, -1e300},
		{1, 64, 63, 65, 4096, 1},
		{math.Copysign(0, -1)},
	}
	for _, vals := range fixed {
		d, r := fill(vals)
		if err := sameAsRetained(d, r); err != nil {
			t.Errorf("%v: %v", vals, err)
		}
	}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, ra := fill(multiset(rng))
		b, rb := fill(multiset(rng))
		extra := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64()}
		for _, pair := range []struct {
			d *Dist
			r *retained
		}{{a, ra}, {b, rb}} {
			if err := sameAsRetained(pair.d, pair.r, extra...); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		var ab, ba Dist
		var rab, rba retained
		ab.Merge(a)
		ab.Merge(b)
		rab.merge(ra)
		rab.merge(rb)
		ba.Merge(b)
		ba.Merge(a)
		rba.merge(rb)
		rba.merge(ra)
		for _, err := range []error{
			sameAsRetained(&ab, &rab, extra...), sameAsRetained(&ba, &rba, extra...),
			sameAsRetained(a, ra), sameAsRetained(b, rb), // sources untouched
		} {
			if err != nil {
				t.Logf("seed %d after merge: %v", seed, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDistIgnoresNaN: a NaN has no rank; it is dropped rather than given a
// map entry that no lookup could ever find again.
func TestDistIgnoresNaN(t *testing.T) {
	var d Dist
	d.Add(3)
	d.Add(math.NaN())
	d.Add(5)
	if d.Count() != 2 || d.Mean() != 4 || d.Percentile(50) != 4 || d.Percentile(100) != 5 || len(d.rest) != 0 {
		t.Fatalf("count=%d mean=%v p50=%v max=%v rest=%v", d.Count(), d.Mean(), d.Percentile(50), d.Percentile(100), d.rest)
	}
}

// retainedBytes is what the collector's distributions hold on to.
func (c *Collector) retainedBytes() int {
	size := func(d *Dist) int { return 4*cap(d.dense) + 12*len(d.rest) }
	total := size(&c.total)
	for _, d := range c.perApp {
		total += size(d)
	}
	return total
}

// TestCollectorHeapIsFlat: once every (application, latency) pair has been
// seen, recording a packet allocates nothing and the collector's size no
// longer depends on how many packets it has measured.
func TestCollectorHeapIsFlat(t *testing.T) {
	const apps, maxLat = 8, 2000
	c := NewCollector(0, 0)
	p := &msg.Packet{Size: 5, Hops: 3}
	i := 0
	eject := func() {
		p.App, p.Global = i%apps, i%3 == 0
		p.CreatedAt = int64(i)
		p.InjectedAt = p.CreatedAt + 2
		p.EjectedAt = p.CreatedAt + int64(i/apps%maxLat)
		c.OnEject(p, p.EjectedAt)
		i++
	}
	for i < apps*maxLat {
		eject()
	}
	before := c.retainedBytes()
	if allocs := testing.AllocsPerRun(1_000_000, eject); allocs != 0 {
		t.Errorf("OnEject allocates %v times per packet in steady state", allocs)
	}
	// Nine distributions (total + eight applications) of 2048 four-byte
	// counts: maxLat rounded up by the doubling growth.
	if after := c.retainedBytes(); after != before || after > 9*4*2048 {
		t.Errorf("collector retains %d bytes after 10^6 more packets (%d before)", after, before)
	}
	if c.Packets() != int64(i) || c.Total().Count() != i || c.Total().Percentile(100) != maxLat-1 {
		t.Errorf("measured %d of %d packets, max %v", c.Packets(), i, c.Total().Percentile(100))
	}
}
