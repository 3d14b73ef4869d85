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
	// Timeout bounds one job attempt (0 = no limit). A timed-out attempt
	// counts as a transient failure and is retried.
	Timeout time.Duration
	// Retries is how many additional attempts a failed job gets before the
	// failure is permanent.
	Retries int
	// Log, if set, receives progress lines.
	Log func(format string, args ...any)
}

// Summary reports what a sweep run did.
type Summary struct {
	Total   int // jobs in the manifest
	Skipped int // already present in the store
	Ran     int // executed and appended this run
	Retried int // attempts beyond the first, across all jobs
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
// A permanent job failure (after retries) cancels the remaining jobs: the
// sims are deterministic, so rerunning dependents past a hole would only
// bake the hole into the store's order.
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
		pos      int // position in pending (dense, ordered)
		rec      *Record
		err      error
		attempts int
	}
	results := make(chan result)
	feed := make(chan int) // position in pending
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range feed {
				rec, attempts, err := runWithRetry(ctx, pending[pos], run, opts, logf)
				select {
				case results <- result{pos, rec, err, attempts}:
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
			sum.Retried += r.attempts - 1
			if r.err != nil {
				execErr = fmt.Errorf("sweep: job %s failed after %d attempt(s): %w", pending[r.pos], r.attempts, r.err)
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

// runWithRetry executes one job with the per-attempt timeout and bounded
// retries. Only attempt errors are retried; context cancellation aborts.
func runWithRetry(ctx context.Context, job Job, run Runner, opts Options, logf func(string, ...any)) (rec *Record, attempts int, err error) {
	for attempts = 1; ; attempts++ {
		text, csv, aerr := runAttempt(ctx, job, run, opts.Timeout)
		if aerr == nil {
			return &Record{
				Key: job.Key(), Experiment: job.Experiment, Seed: job.Seed, Quick: job.Quick,
				Text: text, CSV: csv,
			}, attempts, nil
		}
		if ctx.Err() != nil {
			return nil, attempts, ctx.Err()
		}
		err = aerr
		if attempts > opts.Retries {
			return nil, attempts, err
		}
		logf("  %s attempt %d failed (%v), retrying", job, attempts, aerr)
	}
}

// runAttempt runs one attempt under the timeout. The runner itself cannot
// be preempted mid-simulation, so a timed-out attempt's goroutine is
// abandoned (it exits with the process); the orchestrator just stops
// waiting for it.
func runAttempt(ctx context.Context, job Job, run Runner, timeout time.Duration) (text, csv string, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type out struct {
		text, csv string
		err       error
	}
	ch := make(chan out, 1)
	go func() {
		t, c, e := run(ctx, job)
		ch <- out{t, c, e}
	}()
	select {
	case o := <-ch:
		return o.text, o.csv, o.err
	case <-ctx.Done():
		return "", "", fmt.Errorf("attempt timed out or canceled: %w", ctx.Err())
	}
}
