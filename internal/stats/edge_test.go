package stats

import "testing"

// TestDistEmpty: every reader is total on a zero-sample distribution.
func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Count() != 0 {
		t.Fatalf("Count = %d", d.Count())
	}
	if d.Mean() != 0 {
		t.Errorf("Mean = %v, want 0", d.Mean())
	}
	for _, p := range []float64{-5, 0, 50, 100, 200} {
		if got := d.Percentile(p); got != 0 {
			t.Errorf("Percentile(%v) = %v, want 0", p, got)
		}
	}
	if d.Percentile(100) != 0 {
		t.Errorf("Max = %v, want 0", d.Percentile(100))
	}
	if got := d.Histogram(4); got != "(no samples)\n" {
		t.Errorf("Histogram = %q", got)
	}
}

// TestDistSingleSample: one sample is every percentile.
func TestDistSingleSample(t *testing.T) {
	var d Dist
	d.Add(7.5)
	for _, p := range []float64{-1, 0, 25, 50, 99.9, 100, 150} {
		if got := d.Percentile(p); got != 7.5 {
			t.Errorf("Percentile(%v) = %v, want 7.5", p, got)
		}
	}
	if d.Mean() != 7.5 || d.Percentile(100) != 7.5 {
		t.Errorf("Mean/Max = %v/%v, want 7.5", d.Mean(), d.Percentile(100))
	}
}

// TestDistPercentileClamps: out-of-range p values clamp to the extremes
// instead of indexing out of bounds.
func TestDistPercentileClamps(t *testing.T) {
	var d Dist
	for _, v := range []float64{5, 1, 3} {
		d.Add(v)
	}
	if got := d.Percentile(-10); got != 1 {
		t.Errorf("Percentile(-10) = %v, want min 1", got)
	}
	if got := d.Percentile(1000); got != 5 {
		t.Errorf("Percentile(1000) = %v, want max 5", got)
	}
}

// TestDistMergeOverlappingWindows models two collectors whose measurement
// windows overlap: the same latency values appear in both, and the merge
// must keep duplicates (each is a distinct packet observation).
func TestDistMergeOverlappingWindows(t *testing.T) {
	var a, b Dist
	for _, v := range []float64{1, 2, 3} {
		a.Add(v)
	}
	for _, v := range []float64{2, 3, 4} {
		b.Add(v)
	}
	// Prime both sort caches so the merge must invalidate them.
	if a.Percentile(50) != 2 || b.Percentile(50) != 3 {
		t.Fatalf("pre-merge medians %v/%v", a.Percentile(50), b.Percentile(50))
	}
	a.Merge(&b)
	if a.Count() != 6 {
		t.Fatalf("merged count = %d, want 6 (duplicates kept)", a.Count())
	}
	if got, want := a.Mean(), 15.0/6; got != want {
		t.Errorf("merged mean = %v, want %v", got, want)
	}
	// Sorted view [1 2 2 3 3 4]: the median interpolates between the two
	// middle samples 2 and 3.
	if got := a.Percentile(50); got != 2.5 {
		t.Errorf("merged median = %v, want 2.5 (stale sort cache?)", got)
	}
	if a.Percentile(0) != 1 || a.Percentile(100) != 4 {
		t.Errorf("merged extremes = %v..%v, want 1..4", a.Percentile(0), a.Percentile(100))
	}
	// The source's cache and samples survive unchanged.
	if b.Count() != 3 || b.Percentile(50) != 3 {
		t.Errorf("source changed by merge: count=%d median=%v", b.Count(), b.Percentile(50))
	}
}

// TestDistMergeIntoEmpty: merging into a fresh Dist is a copy, and merging
// two empties stays empty.
func TestDistMergeIntoEmpty(t *testing.T) {
	var a, b Dist
	b.Add(4)
	b.Add(2)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 3 || a.Percentile(100) != 4 {
		t.Errorf("merge into empty: count=%d mean=%v max=%v", a.Count(), a.Mean(), a.Percentile(100))
	}
	var c, d Dist
	c.Merge(&d)
	if c.Count() != 0 || c.Percentile(50) != 0 {
		t.Errorf("empty-empty merge: count=%d median=%v", c.Count(), c.Percentile(50))
	}
}

// TestDistMergeThenAdd: appends after a merge keep both the sum and the
// lazily rebuilt sorted view consistent.
func TestDistMergeThenAdd(t *testing.T) {
	var a, b Dist
	a.Add(10)
	b.Add(30)
	a.Merge(&b)
	if a.Percentile(100) != 30 {
		t.Fatalf("max after merge = %v", a.Percentile(100))
	}
	a.Add(20)
	if a.Count() != 3 || a.Mean() != 20 {
		t.Errorf("count/mean after add = %d/%v", a.Count(), a.Mean())
	}
	if got := a.Percentile(50); got != 20 {
		t.Errorf("median after add = %v, want 20", got)
	}
}
