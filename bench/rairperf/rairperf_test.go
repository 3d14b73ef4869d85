package main

import (
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// tiny gives every workload a window short enough for the whole suite to
// run in seconds.
func tiny(w *workload) sizes {
	if strings.HasPrefix(w.name, "mesh32") {
		return sizes{Warmup: 20, Timed: 64, Drain: 2000, Preflight: 16}
	}
	return sizes{Warmup: 200, Timed: 800, Drain: 5000, Preflight: 100}
}

func runTiny(t *testing.T, w *workload, traced bool) *runRecord {
	t.Helper()
	rec, err := runWorkload(runSpec{Workload: w.name, Seed: 7, Sizes: tiny(w), Traced: traced,
		Setups: 1, Segments: 8, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rec.Failures {
		t.Errorf("%s traced=%v: %s", w.name, traced, f)
	}
	if rec.Attempted == 0 || rec.Failed != 0 {
		t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, rec.Failed, rec.Attempted)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(rec.Values) != len(defs) {
		t.Errorf("%s traced=%v: %d values for %d declared metrics", w.name, traced, len(rec.Values), len(defs))
	}
	for _, d := range defs {
		v, ok := rec.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s traced=%v: metric %s = %v (present=%v)", w.name, traced, d.Name, v, ok)
		}
	}
	return rec
}

// Every workload's digest repeats between two runs and between an untraced
// and a traced run, and the sharded mesh agrees with the serial one.
func TestWorkloadsRepeatExactly(t *testing.T) {
	digests := map[string]string{}
	for _, w := range workloads {
		if w.workers > runtime.NumCPU() {
			t.Logf("%s: skipped, needs %d CPUs", w.name, w.workers)
			continue
		}
		a, b := runTiny(t, w, false), runTiny(t, w, true)
		if a.Digest != b.Digest {
			t.Errorf("%s: digest %s untraced, %s traced", w.name, a.Digest, b.Digest)
		}
		if !w.parsec && !strings.HasPrefix(w.name, "mesh32") { // where a third set-up is cheap
			if c := runTiny(t, w, false); c.Digest != a.Digest {
				t.Errorf("%s: digest %s then %s", w.name, a.Digest, c.Digest)
			}
		}
		digests[w.name] = a.Digest
	}
	if two, ok := digests["mesh32-w2"]; ok && two != digests["mesh32-serial"] {
		t.Errorf("mesh32-w2 digest %s, mesh32-serial %s", two, digests["mesh32-serial"])
	}
	if digests["quad8"] == digests["lowload8"] {
		t.Error("quad8 and lowload8 share a digest: the digest does not see the load")
	}
}

// BENCHMARK.json and the code declare the same workloads and metrics, inside
// the limits the benchmark contract sets.
func TestManifestMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads declared, %d in code", n, len(workloads))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q declared, %q in code, why of %d characters", i, w.Name, workloads[i].name, len(w.Why))
		}
	}
	sameDefs := func(kind string, declared, code []metricDef, max int) {
		if len(declared) != len(code) || len(code) < 1 || len(code) > max {
			t.Fatalf("%s: %d metrics declared, %d in code, at most %d allowed", kind, len(declared), len(code), max)
		}
		for i, d := range declared {
			checkName(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
				t.Errorf("%s %s: unit %q, better %q", kind, d.Name, d.Unit, d.Better)
			}
			if d != code[i] {
				t.Errorf("%s %d: declared %+v, code %+v", kind, i, d, code[i])
			}
		}
	}
	sameDefs("end_to_end", m.EndToEnd, endToEnd, 16)
	sameDefs("per_layer", m.PerLayer, perLayer, 128)
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestSpreadAndVerdict(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) is [2.75, 5.5, 8.25].
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := spread([]float64{10, 11, 12}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread of three values = %v, want their range over the median", got)
	}
	rate := metricDef{Name: "r", Better: higher, Bound: 0.07}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 102}, []float64{99, 100, 101}, "ok"},
		{[]float64{100, 101, 102}, []float64{90, 91, 92}, "regressed"},
		{[]float64{100, 101, 120}, []float64{95, 100, 101}, "unresolved"},
		{[]float64{100, 101, 102}, []float64{130, 150, 170}, "ok"}, // wide, but every run better
	} {
		if _, got := verdict(rate, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
