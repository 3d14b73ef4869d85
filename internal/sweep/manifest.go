// Package sweep orchestrates experiment sweeps: declarative manifests
// expand into content-hash-keyed jobs, a bounded worker pool executes them
// with a per-job timeout, and completed results append to a
// JSONL store in canonical job order so an interrupted sweep resumes
// bit-exactly. On top of the store sit the checker of the shape guards and
// the paper's claims (one predicate vocabulary), the scorecard rendered from
// it, and a store-to-store diff.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Manifest declares a sweep: a set of experiments, each expanded over the
// manifest's seed list at paper or quick durations. Expansion order is the
// canonical job order: experiments in listed order, seeds in listed order.
type Manifest struct {
	// Name identifies the manifest in reports and summaries.
	Name string `json:"name"`
	// Quick selects reduced warmup/measurement windows for every job.
	Quick bool `json:"quick"`
	// Seeds is the seed list every experiment runs at. Empty means {1}.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Experiments lists the experiment grid.
	Experiments []ExperimentSpec `json:"experiments"`
}

// ExperimentSpec is one experiment entry of a manifest.
type ExperimentSpec struct {
	// Name is the rairbench experiment name (see rairbench -list).
	Name string `json:"name"`
}

// Job is one expanded simulation point. Its content hash keys the result
// store: a job re-expanded from the same manifest always maps to the same
// key, which is how resume skips completed work.
type Job struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
}

// Key returns the job's content-hash key: a stable digest of the fields
// that determine the result (experiment name, seed, durations). 16 hex
// characters of SHA-256 over a versioned canonical encoding.
func (j Job) Key() string {
	canon := fmt.Sprintf("sweepjob/v1|experiment=%s|quick=%t|seed=%d", j.Experiment, j.Quick, j.Seed)
	sum := sha256.Sum256([]byte(canon))
	return fmt.Sprintf("%x", sum[:8])
}

// String renders the job for logs.
func (j Job) String() string {
	d := "paper"
	if j.Quick {
		d = "quick"
	}
	return fmt.Sprintf("%s seed=%d dur=%s [%s]", j.Experiment, j.Seed, d, j.Key())
}

// Expand flattens the manifest into its canonical job list. Duplicate
// (experiment, seed) pairs collapse to one job (first occurrence wins), so
// a manifest is a set, not a multiset.
func (m *Manifest) Expand() []Job {
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var jobs []Job
	seen := make(map[string]bool)
	for _, e := range m.Experiments {
		for _, s := range seeds {
			j := Job{Experiment: e.Name, Seed: s, Quick: m.Quick}
			if k := j.Key(); !seen[k] {
				seen[k] = true
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// Validate checks the manifest against the set of known experiment names
// (from rair.Experiments) and basic well-formedness.
func (m *Manifest) Validate(known []string) error {
	if len(m.Experiments) == 0 {
		return fmt.Errorf("sweep: manifest %q lists no experiments", m.Name)
	}
	if slices.Contains(m.Seeds, 0) {
		return fmt.Errorf("sweep: manifest %q uses seed 0 (seeds must be >= 1)", m.Name)
	}
	ok := make(map[string]bool, len(known))
	for _, n := range known {
		ok[n] = true
	}
	for _, e := range m.Experiments {
		if e.Name == "" {
			return fmt.Errorf("sweep: manifest %q has an experiment with no name", m.Name)
		}
		if len(known) > 0 && !ok[e.Name] {
			return fmt.Errorf("sweep: manifest %q names unknown experiment %q (known: %v)", m.Name, e.Name, known)
		}
	}
	return nil
}

// LoadManifest reads a manifest from a JSON file, rejecting unknown fields
// so a misspelt "quick" cannot silently select paper durations, and anything
// after the manifest document.
func LoadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: read manifest: %w", err)
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("sweep: parse manifest %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("sweep: parse manifest %s: data after the manifest document", path)
	}
	return &m, nil
}
