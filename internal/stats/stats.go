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

// Dist accumulates a latency distribution. Samples are retained for exact
// percentiles; evaluation windows are small enough (tens of thousands of
// packets) that this is cheap.
//
// Percentile sorts lazily into a separate copy, so the insertion-ordered
// samples are never reordered: readers iterating the distribution (e.g.
// Histogram) observe samples in Add order regardless of interleaved
// Percentile calls. The sorted copy is cached and rebuilt only when samples
// were added since it was built (samples only ever append, so a length
// mismatch is the exact staleness condition). Building the cache mutates
// the Dist: like Add, Percentile/Max/Histogram need external
// synchronization if the same Dist is shared across goroutines.
type Dist struct {
	Accum
	samples []float64
	sorted  []float64 // lazily built sorted copy of samples
}

// Add records one sample.
func (d *Dist) Add(v float64) {
	d.Accum.Add(v)
	d.samples = append(d.samples, v)
}

// Merge folds another distribution's samples into d (per-shard or
// per-run distributions combined for aggregate percentiles). The other
// distribution is not modified.
func (d *Dist) Merge(o *Dist) {
	d.samples = append(d.samples, o.samples...)
	d.sum += o.sum
	d.n += o.n
}

// Percentile reports the p-th percentile (p in [0,100]); 0 with no samples.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if len(d.sorted) != len(d.samples) {
		d.sorted = append(d.sorted[:0], d.samples...)
		sort.Float64s(d.sorted)
	}
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 100 {
		return d.sorted[len(d.sorted)-1]
	}
	idx := p / 100 * float64(len(d.sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	frac := idx - float64(lo)
	return d.sorted[lo]*(1-frac) + d.sorted[hi]*frac
}

// Max reports the largest sample (0 with no samples).
func (d *Dist) Max() float64 { return d.Percentile(100) }

// StdDev reports the sample standard deviation.
func (d *Dist) StdDev() float64 {
	n := len(d.samples)
	if n < 2 {
		return 0
	}
	m := d.Mean()
	var ss float64
	for _, v := range d.samples {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(n-1))
}

// Collector subscribes to packet ejections and aggregates latency by
// application and by traffic kind. Only packets created inside
// [Warmup, MeasureEnd) are counted; MeasureEnd <= 0 means no upper bound.
// By design the simulation keeps running (draining) after the measurement
// window so that counted packets complete.
type Collector struct {
	Warmup     int64
	MeasureEnd int64

	// Samples are kept only where a percentile or histogram is read.
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
	if len(d.samples) == 0 {
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
		return fmt.Sprintf("%8.1f | all %d samples\n", lo, len(d.samples))
	}
	counts := make([]int, bins)
	for _, v := range d.samples {
		b := int((v - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
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
