package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stubRunner is a deterministic fake experiment: output depends only on the
// job, like the real registry.
func stubRunner(_ context.Context, job Job) (string, string, error) {
	text := fmt.Sprintf("result of %s seed %d quick %t\n", job.Experiment, job.Seed, job.Quick)
	csv := fmt.Sprintf("scheme,value\n%s,%d\n", job.Experiment, job.Seed*3)
	return text, csv, nil
}

func testManifest() *Manifest {
	return &Manifest{
		Name:  "t",
		Quick: true,
		Seeds: []uint64{1, 2},
		Experiments: []ExperimentSpec{
			{Name: "alpha"},
			{Name: "beta", Seeds: []uint64{7}},
			{Name: "gamma"},
		},
	}
}

func TestManifestExpansion(t *testing.T) {
	jobs := testManifest().Expand()
	want := []Job{
		{"alpha", 1, true}, {"alpha", 2, true},
		{"beta", 7, true},
		{"gamma", 1, true}, {"gamma", 2, true},
	}
	if len(jobs) != len(want) {
		t.Fatalf("expanded %d jobs, want %d: %v", len(jobs), len(want), jobs)
	}
	for i, j := range jobs {
		if j != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, j, want[i])
		}
	}
	// Default seed list when none given.
	m := &Manifest{Experiments: []ExperimentSpec{{Name: "x"}}}
	if jobs := m.Expand(); len(jobs) != 1 || jobs[0].Seed != 1 {
		t.Errorf("default-seed expansion = %v, want one job with seed 1", jobs)
	}
}

func TestJobKeyingAndDedup(t *testing.T) {
	a := Job{"fig9", 1, true}
	if a.Key() != (Job{"fig9", 1, true}).Key() {
		t.Error("identical jobs must share a key")
	}
	distinct := []Job{a, {"fig9", 2, true}, {"fig9", 1, false}, {"fig14", 1, true}}
	seen := map[string]Job{}
	for _, j := range distinct {
		if prev, dup := seen[j.Key()]; dup {
			t.Errorf("key collision between %+v and %+v", prev, j)
		}
		seen[j.Key()] = j
	}
	// A manifest repeating (experiment, seed) collapses to one job.
	m := &Manifest{Quick: true, Seeds: []uint64{1},
		Experiments: []ExperimentSpec{{Name: "alpha"}, {Name: "alpha"}, {Name: "alpha", Seeds: []uint64{1, 1}}}}
	if jobs := m.Expand(); len(jobs) != 1 {
		t.Errorf("duplicate specs expanded to %d jobs, want 1: %v", len(jobs), jobs)
	}
}

func TestManifestValidate(t *testing.T) {
	m := testManifest()
	if err := m.Validate([]string{"alpha", "beta", "gamma"}); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
	if err := m.Validate([]string{"alpha", "beta"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := (&Manifest{Name: "e"}).Validate(nil); err == nil {
		t.Error("empty manifest accepted")
	}
	bad := &Manifest{Experiments: []ExperimentSpec{{Name: "alpha", Seeds: []uint64{0}}}}
	if err := bad.Validate(nil); err == nil {
		t.Error("seed 0 accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	m := testManifest()
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Quick != m.Quick || len(got.Experiments) != len(m.Experiments) {
		t.Errorf("round trip lost fields: %+v vs %+v", got, m)
	}
	// A misspelt key must fail the load, not fall back to paper durations.
	typo := `{"name": "m", "quik": true, "experiments": [{"name": "fig9"}]}`
	if err := os.WriteFile(path, []byte(typo), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "quik") {
		t.Errorf("manifest with an unknown field loaded: %v", err)
	}
	// So must a second JSON value after the manifest.
	trailing := `{"name": "m", "experiments": [{"name": "fig9"}]} {"quick": true}`
	if err := os.WriteFile(path, []byte(trailing), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "after the manifest") {
		t.Errorf("manifest followed by trailing data loaded: %v", err)
	}
}

// runSweepToFile executes the test manifest into path and returns the bytes.
func runSweepToFile(t *testing.T, path string, workers int, run Runner, done map[string]bool, resume bool) []byte {
	t.Helper()
	var store *Store
	var err error
	if resume {
		store, err = OpenStoreAppend(path)
	} else {
		store, err = CreateStore(path, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(context.Background(), testManifest(), store, done, run, Options{Workers: workers})
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestWorkerCountDeterminism(t *testing.T) {
	dir := t.TempDir()
	one := runSweepToFile(t, filepath.Join(dir, "w1.jsonl"), 1, stubRunner, nil, false)
	four := runSweepToFile(t, filepath.Join(dir, "w4.jsonl"), 4, stubRunner, nil, false)
	if !bytes.Equal(one, four) {
		t.Errorf("1-worker and 4-worker stores differ:\n--- w1\n%s--- w4\n%s", one, four)
	}
}

func TestResumeAfterKillByteIdentical(t *testing.T) {
	dir := t.TempDir()
	full := runSweepToFile(t, filepath.Join(dir, "full.jsonl"), 3, stubRunner, nil, false)

	// Simulate a kill: keep two whole records plus half of the third.
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("want >= 4 store lines, got %d", len(lines))
	}
	partial := append([]byte{}, bytes.Join(lines[:2], nil)...)
	partial = append(partial, lines[2][:len(lines[2])/2]...) // mid-record truncation
	killed := filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(killed, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, dropped, err := RecoverStore(killed)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if dropped != int64(len(lines[2])/2) {
		t.Errorf("dropped %d bytes, want %d", dropped, len(lines[2])/2)
	}
	resumed := runSweepToFile(t, killed, 2, stubRunner, Keys(recs), true)
	if !bytes.Equal(resumed, full) {
		t.Errorf("resumed store differs from uninterrupted run:\n--- resumed\n%s--- full\n%s", resumed, full)
	}
}

func TestRecoverCleanStoreIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	full := runSweepToFile(t, path, 2, stubRunner, nil, false)
	recs, dropped, err := RecoverStore(path)
	if err != nil || dropped != 0 {
		t.Fatalf("recover clean store: recs=%d dropped=%d err=%v", len(recs), dropped, err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(after, full) {
		t.Error("recovery modified a clean store")
	}
}

func TestCreateStoreRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	runSweepToFile(t, path, 1, stubRunner, nil, false)
	if _, err := CreateStore(path, false); err == nil {
		t.Error("CreateStore overwrote an existing non-empty store without force")
	}
	s, err := CreateStore(path, true)
	if err != nil {
		t.Fatalf("CreateStore with force: %v", err)
	}
	s.Close()
}

func TestPermanentFailureStopsSweep(t *testing.T) {
	broken := func(ctx context.Context, job Job) (string, string, error) {
		if job.Experiment == "beta" {
			return "", "", errors.New("deterministic failure")
		}
		return stubRunner(ctx, job)
	}
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := CreateStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(context.Background(), testManifest(), store, nil, broken, Options{Workers: 2})
	store.Close()
	if err == nil {
		t.Fatal("sweep succeeded with a permanently failing job")
	}
	// The store must hold only the canonical prefix before the failure so
	// a fixed binary resumes into a byte-identical store.
	recs, lerr := LoadStore(path)
	if lerr != nil {
		t.Fatal(lerr)
	}
	for _, r := range recs {
		if r.Experiment != "alpha" {
			t.Errorf("record %s past the failed job leaked into the store", r.Experiment)
		}
	}
}

func TestTimeoutRetriesThenFails(t *testing.T) {
	var calls atomic.Int64
	slow := func(ctx context.Context, job Job) (string, string, error) {
		if job.Experiment == "alpha" && job.Seed == 1 {
			calls.Add(1)
			select {
			case <-time.After(5 * time.Second):
			case <-ctx.Done():
				return "", "", ctx.Err()
			}
		}
		return stubRunner(ctx, job)
	}
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := CreateStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(context.Background(), testManifest(), store, nil, slow, Options{
		Workers: 2, Timeout: 30 * time.Millisecond,
	})
	store.Close()
	if err == nil {
		t.Fatal("sweep succeeded despite alpha seed 1 timing out")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("alpha seed-1 attempts = %d, want 1 (a timeout fails the sweep, no retry)", got)
	}
}

func TestCancellationLeavesResumableStore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	gate := func(c context.Context, job Job) (string, string, error) {
		if job.Experiment != "alpha" {
			// Block until canceled: only alpha results can land.
			<-c.Done()
			return "", "", c.Err()
		}
		<-release
		return stubRunner(c, job)
	}
	path := filepath.Join(t.TempDir(), "s.jsonl")
	store, err := CreateStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		close(release)
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err = Execute(ctx, testManifest(), store, nil, gate, Options{Workers: 2})
	store.Close()
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	recs, _, rerr := RecoverStore(path)
	if rerr != nil {
		t.Fatalf("store not recoverable after cancel: %v", rerr)
	}
	for _, r := range recs {
		if r.Experiment != "alpha" {
			t.Errorf("unexpected record %q in canceled store", r.Experiment)
		}
	}
}
