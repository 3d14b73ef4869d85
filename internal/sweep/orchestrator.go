package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Runner executes one job and returns the experiment's text and CSV
// outputs. It must be deterministic in the job (the store's resume and
// diff semantics assume a job key maps to exactly one result).
type Runner func(ctx context.Context, job Job) (text, csv string, err error)

// Options configures a sweep run.
type Options struct {
	// Workers bounds concurrently executing jobs (<= 0 means 1).
	Workers int
	// Timeout bounds one job (0 = no limit): the guard against a hung
	// simulation. Expiry fails the sweep like any other job failure.
	Timeout time.Duration
	// Log, if set, receives progress lines.
	Log func(format string, args ...any)
}

// Summary reports what a sweep run did.
type Summary struct {
	Total   int // jobs in the manifest
	Skipped int // already present in the store
	Ran     int // executed and appended this run
}

// ErrCanceled reports a sweep stopped by context cancellation; the store
// holds a clean resumable prefix.
var ErrCanceled = errors.New("sweep: canceled")

// Execute runs the manifest's jobs over the worker pool, appending each
// result to the store in canonical job order. Jobs whose key is already in
// done are skipped — pass Keys(records) of a recovered store to resume.
//
// Ordering: workers complete out of order, but a sequencer appends result i
// only after results 0..i-1, so the store is always a prefix of the
// canonical order. A killed or canceled sweep therefore leaves a store that
// resume extends to the byte-identical uninterrupted result, and 1-worker
// and N-worker sweeps produce identical stores.
//
// A job failure cancels the remaining jobs and is never retried: a job is a
// deterministic in-process function of (experiment, seed, durations), so it
// would fail the same way again, and running dependents past the hole would
// only bake the hole into the store's order.
func Execute(ctx context.Context, m *Manifest, store *Store, done map[string]bool, run Runner, opts Options) (Summary, error) {
	jobs := m.Expand()
	sum := Summary{Total: len(jobs)}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Pending jobs in canonical order.
	var pending []Job
	for _, j := range jobs {
		if done[j.Key()] {
			sum.Skipped++
			continue
		}
		pending = append(pending, j)
	}
	logf("sweep %s: %d jobs, %d already in store, %d to run, %d workers",
		m.Name, sum.Total, sum.Skipped, len(pending), workers)
	if len(pending) == 0 {
		return sum, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		pos int // position in pending (dense, ordered)
		rec *Record
		err error
	}
	results := make(chan result)
	feed := make(chan int) // position in pending
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range feed {
				rec, err := runJob(ctx, pending[pos], run, opts.Timeout)
				select {
				case results <- result{pos, rec, err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(feed)
		for pos := range pending {
			select {
			case feed <- pos:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Sequencer: buffer out-of-order completions, append the contiguous
	// prefix. Completions past a permanent failure or cancellation are
	// dropped (they rerun on resume), keeping the store canonical.
	buffered := make(map[int]*Record)
	next := 0
	var execErr error
	for next < len(pending) && execErr == nil {
		select {
		case r := <-results:
			if r.err != nil {
				execErr = fmt.Errorf("sweep: job %s failed: %w", pending[r.pos], r.err)
				break
			}
			buffered[r.pos] = r.rec
			for buffered[next] != nil {
				if err := store.Append(buffered[next]); err != nil {
					execErr = fmt.Errorf("sweep: appending %s: %w", pending[next], err)
					break
				}
				delete(buffered, next)
				sum.Ran++
				logf("  [%d/%d] %s done", sum.Skipped+sum.Ran, sum.Total, pending[next])
				next++
			}
		case <-ctx.Done():
			execErr = ErrCanceled
		}
	}
	cancel()
	wg.Wait()
	return sum, execErr
}

// runJob runs one job under the timeout. The runner itself cannot be
// preempted mid-simulation, so a timed-out job's goroutine is abandoned (it
// exits with the process); the orchestrator just stops waiting for it.
func runJob(ctx context.Context, job Job, run Runner, timeout time.Duration) (*Record, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type out struct {
		rec *Record
		err error
	}
	ch := make(chan out, 1)
	go func() {
		text, csv, err := run(ctx, job)
		ch <- out{&Record{
			Key: job.Key(), Experiment: job.Experiment, Seed: job.Seed, Quick: job.Quick,
			Text: text, CSV: csv,
		}, err}
	}()
	select {
	case o := <-ch:
		return o.rec, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("timed out or canceled: %w", ctx.Err())
	}
}
