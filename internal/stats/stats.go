// Package stats collects packet-latency statistics with warmup handling,
// broken down per application and per traffic kind (regional vs. global),
// matching the measurements reported in the paper's evaluation (average
// packet latency over a measurement window after warmup).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rair/internal/msg"
)

// Accum accumulates a sample sum and count: all a mean needs, so a figure
// only ever read as a mean retains no samples.
type Accum struct {
	sum float64
	n   int
}

// Add records one sample.
func (a *Accum) Add(v float64) {
	a.sum += v
	a.n++
}

// Count reports the number of samples.
func (a *Accum) Count() int { return a.n }

// Mean reports the sample mean (0 with no samples).
func (a *Accum) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// denseCap bounds Dist.dense: 2^16 uint32 counts are 256 KB at worst.
const denseCap = 1 << 16

// Dist accumulates a latency distribution as an exact counting histogram:
// one count per distinct value, so its size follows the range of the values,
// not their number, while mean, interpolated percentiles, max and Histogram
// equal those of the retained, sorted samples bit for bit. Latencies are
// whole cycles and land in dense; rest keeps every other value exactly (a
// latency past denseCap, a fractional sample). Readers do not mutate it.
type Dist struct {
	Accum
	dense []uint32           // dense[i] counts samples equal to i, for whole i in [0, denseCap)
	rest  map[float64]uint32 // counts of every other value, keyed by the value
}

// Add records one sample. NaN has no rank and is ignored.
func (d *Dist) Add(v float64) {
	if v != v {
		return
	}
	d.Accum.Add(v)
	d.bump(v, 1)
}

// bump adds n to the count of v.
func (d *Dist) bump(v float64, n uint32) {
	if i := int(v); v >= 0 && v < denseCap && float64(i) == v {
		if i >= len(d.dense) {
			size := max(64, len(d.dense))
			for size <= i {
				size *= 2
			}
			d.dense = append(make([]uint32, 0, size), d.dense...)[:size]
		}
		d.dense[i] += n
		return
	}
	if d.rest == nil {
		d.rest = make(map[float64]uint32)
	}
	d.rest[v] += n
}

// each visits distinct values, ascending, with counts until f returns false.
func (d *Dist) each(f func(v float64, n uint32) bool) {
	keys := make([]float64, 0, len(d.rest))
	for v := range d.rest {
		keys = append(keys, v)
	}
	sort.Float64s(keys)
	// One pass per dense index, plus a last one for the keys above them all.
	for i, k := 0, 0; i <= len(d.dense); i++ {
		for ; k < len(keys) && (i == len(d.dense) || keys[k] < float64(i)); k++ {
			if !f(keys[k], d.rest[keys[k]]) {
				return
			}
		}
		if i < len(d.dense) && d.dense[i] != 0 && !f(float64(i), d.dense[i]) {
			return
		}
	}
}

// Merge folds another distribution's counts into d (per-shard or per-run
// distributions combined for aggregate percentiles) in O(distinct values),
// whatever the order of merges. The other distribution is not modified.
func (d *Dist) Merge(o *Dist) {
	o.each(func(v float64, n uint32) bool {
		d.bump(v, n)
		return true
	})
	d.sum += o.sum
	d.n += o.n
}

// ranks returns the lo-th and hi-th smallest samples (lo <= hi < Count).
func (d *Dist) ranks(lo, hi int) (a, b float64) {
	seen := 0
	d.each(func(v float64, n uint32) bool {
		if lo >= seen {
			a = v
		}
		seen += int(n)
		b = v
		return hi >= seen
	})
	return a, b
}

// Percentile reports the p-th percentile (p in [0,100]), interpolating
// linearly between neighbouring ranks; 0 with no samples.
func (d *Dist) Percentile(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	idx := min(max(p, 0), 100) / 100 * float64(d.n-1)
	lo, hi := int(math.Floor(idx)), int(math.Ceil(idx))
	a, b := d.ranks(lo, hi)
	if lo == hi {
		return a
	}
	frac := idx - float64(lo)
	return a*(1-frac) + b*frac
}

// Collector subscribes to packet ejections and aggregates latency by
// application and by traffic kind. Only packets created inside
// [Warmup, MeasureEnd) are counted; MeasureEnd <= 0 means no upper bound.
// By design the simulation keeps running (draining) after the measurement
// window so that counted packets complete.
type Collector struct {
	Warmup     int64
	MeasureEnd int64

	// Distributions are kept only where a percentile or histogram is read.
	total    Dist
	perApp   map[int]*Dist
	network  Accum
	hops     Accum
	regional Accum
	global   Accum

	flits   int64 // delivered flits of measured packets
	packets int64
}

// NewCollector returns a collector measuring packets created in
// [warmup, measureEnd).
func NewCollector(warmup, measureEnd int64) *Collector {
	return &Collector{
		Warmup:     warmup,
		MeasureEnd: measureEnd,
		perApp:     make(map[int]*Dist),
	}
}

// OnEject records a delivered packet; wire it as the network's ejection
// callback.
func (c *Collector) OnEject(p *msg.Packet, now int64) {
	if p.CreatedAt < c.Warmup || (c.MeasureEnd > 0 && p.CreatedAt >= c.MeasureEnd) {
		return
	}
	lat := float64(p.TotalLatency())
	c.total.Add(lat)
	c.network.Add(float64(p.NetworkLatency()))
	c.hops.Add(float64(p.Hops))
	app := c.perApp[p.App]
	if app == nil {
		app = &Dist{}
		c.perApp[p.App] = app
	}
	app.Add(lat)
	if p.Global {
		c.global.Add(lat)
	} else {
		c.regional.Add(lat)
	}
	c.flits += int64(p.Size)
	c.packets++
}

// Total returns the all-packets latency distribution.
func (c *Collector) Total() *Dist { return &c.total }

// Network returns the in-network (injection→ejection) latency mean.
func (c *Collector) Network() *Accum { return &c.network }

// Hops returns the router-hop mean.
func (c *Collector) Hops() *Accum { return &c.hops }

// App returns the latency distribution of one application (empty Dist if
// the app delivered nothing).
func (c *Collector) App(app int) *Dist {
	if d, ok := c.perApp[app]; ok {
		return d
	}
	return &Dist{}
}

// Apps lists the application ids with at least one measured packet, sorted.
func (c *Collector) Apps() []int {
	out := make([]int, 0, len(c.perApp))
	for a := range c.perApp {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Regional returns the intra-region traffic latency mean.
func (c *Collector) Regional() *Accum { return &c.regional }

// Global returns the inter-region traffic latency mean.
func (c *Collector) Global() *Accum { return &c.global }

// Packets reports the number of measured packets.
func (c *Collector) Packets() int64 { return c.packets }

// FlitThroughput reports measured flits delivered per node per cycle over
// the measurement window of a nodes-node network.
func (c *Collector) FlitThroughput(nodes int) float64 {
	if c.MeasureEnd <= c.Warmup || nodes == 0 {
		return 0
	}
	return float64(c.flits) / float64(c.MeasureEnd-c.Warmup) / float64(nodes)
}

// APL is shorthand for the average total packet latency.
func (c *Collector) APL() float64 { return c.total.Mean() }

// Histogram renders an ASCII histogram of the distribution with the given
// number of equal-width bins between min and max (clamped to [1, 40] bins).
func (d *Dist) Histogram(bins int) string {
	if d.n == 0 {
		return "(no samples)\n"
	}
	if bins < 1 {
		bins = 1
	}
	if bins > 40 {
		bins = 40
	}
	lo, hi := d.Percentile(0), d.Percentile(100)
	width := (hi - lo) / float64(bins)
	if width <= 0 {
		return fmt.Sprintf("%8.1f | all %d samples\n", lo, d.n)
	}
	counts := make([]int, bins)
	d.each(func(v float64, n uint32) bool {
		b := int((v - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		counts[b] += int(n)
		return true
	})
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var sb strings.Builder
	for b, c := range counts {
		bar := 0
		if maxCount > 0 {
			bar = c * 50 / maxCount
		}
		fmt.Fprintf(&sb, "%8.1f-%8.1f |%-50s %d\n",
			lo+float64(b)*width, lo+float64(b+1)*width, strings.Repeat("#", bar), c)
	}
	return sb.String()
}

// Reduction reports the relative reduction of b versus baseline a:
// (a-b)/a. Positive means b improved on a.
func Reduction(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

// Slowdown reports b/a, the latency slowdown of b relative to a.
func Slowdown(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return b / a
}
