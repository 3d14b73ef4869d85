// Command rairsweep orchestrates experiment sweeps over the rairbench
// experiment registry: it expands a declarative manifest into content-hash-
// keyed jobs, schedules them over a bounded worker pool, and appends results
// to a JSONL store that an interrupted sweep resumes bit-exactly. The check
// subcommand gates the store against the EXPERIMENTS.md shape guards; diff
// lists the numeric cells that moved between two stores; manifest writes a
// manifest over the registry.
//
// Usage:
//
//	rairsweep manifest -out m.json [-experiment name] [-seeds 1,2,3] [-quick]
//	rairsweep run    -manifest m.json -out store.jsonl [-workers N] [-job-timeout d] [-force]
//	rairsweep resume -manifest m.json -out store.jsonl [-workers N] [-job-timeout d]
//	rairsweep check  -store store.jsonl [-summary out.md]
//	rairsweep diff   -a a.jsonl -b b.jsonl [-tol frac]
//
// Manifests come from the manifest subcommand or are written by hand; see
// DESIGN.md ("Sweep orchestration") and testdata/sweep/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rair"
	"rair/internal/sweep"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: rairsweep <command> [flags]

commands:
  manifest write a manifest covering the experiment registry
  run      execute a manifest into a fresh result store
  resume   continue an interrupted sweep (skips jobs already in the store)
  check    apply the EXPERIMENTS.md shape guards to a store
  diff     list the numeric cells that moved between two stores

run 'rairsweep <command> -h' for per-command flags.
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "manifest":
		err = cmdManifest(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "resume":
		err = cmdRun(os.Args[2:], true)
	case "check":
		err = cmdCheck(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rairsweep: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rairsweep:", err)
		os.Exit(1)
	}
}

// knownExperiments names the rairbench registry for manifest validation.
func knownExperiments() []string {
	var out []string
	for _, e := range rair.Experiments() {
		out = append(out, e.Name)
	}
	return out
}

// cmdManifest writes a manifest covering the experiment registry (or one
// experiment of it), so sweeps are declared against the names rairbench
// -list reports.
func cmdManifest(args []string) error {
	fs := flag.NewFlagSet("rairsweep manifest", flag.ExitOnError)
	out := fs.String("out", "", "manifest path to write (required)")
	only := fs.String("experiment", "", "cover this experiment only (default: every experiment)")
	seedList := fs.String("seeds", "1", "comma-separated seed list (integers >= 1)")
	quick := fs.Bool("quick", false, "declare the sweep at reduced durations")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("-out is required")
	}
	var seeds []uint64
	for _, s := range strings.Split(*seedList, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil || v == 0 {
			return fmt.Errorf("-seeds: bad seed %q (need integers >= 1)", s)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return fmt.Errorf("-seeds: no seeds given")
	}
	names := knownExperiments()
	mname, dur := "full-reproduction", "paper"
	if *quick {
		mname, dur = "quick-reproduction", "quick"
	}
	if *only != "" {
		if !slices.Contains(names, *only) {
			return fmt.Errorf("no experiment named %q (see rairbench -list)", *only)
		}
		names, mname = []string{*only}, *only
	}
	if err := sweep.WriteManifest(sweep.NewManifest(mname, names, seeds, *quick), *out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d experiments x %d seeds, %s durations)\n",
		*out, len(names), len(seeds), dur)
	return nil
}

func cmdRun(args []string, resume bool) error {
	name := "run"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet("rairsweep "+name, flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "manifest JSON path (required; see rairsweep manifest)")
	out := fs.String("out", "sweep.jsonl", "result store path")
	workers := fs.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS-bounded by the harness; 1 = serial)")
	timeout := fs.Duration("job-timeout", 0, "per-job timeout, the guard against a hung simulation (0 = none)")
	force := fs.Bool("force", false, "overwrite an existing store (run only)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *manifestPath == "" {
		fs.Usage()
		return fmt.Errorf("-manifest is required")
	}
	m, err := sweep.LoadManifest(*manifestPath)
	if err != nil {
		return err
	}
	if err := m.Validate(knownExperiments()); err != nil {
		return err
	}

	done := map[string]bool{}
	var store *sweep.Store
	if resume {
		recs, dropped, err := sweep.RecoverStore(*out)
		if err != nil {
			return fmt.Errorf("recovering store: %w", err)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "rairsweep: truncated %d bytes of partial record from %s\n", dropped, *out)
		}
		done = sweep.Keys(recs)
		if store, err = sweep.OpenStoreAppend(*out); err != nil {
			return err
		}
	} else {
		if store, err = sweep.CreateStore(*out, *force); err != nil {
			return err
		}
	}
	defer store.Close()

	// SIGINT/SIGTERM cancel the sweep gracefully: in-order results already
	// appended stay, and resume continues from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := *workers
	if w <= 0 {
		w = 2 // few: each experiment already fans out over GOMAXPROCS (harness.RunParallel)
	}
	start := time.Now()
	sum, err := sweep.Execute(ctx, m, store, done, rair.RunJob, sweep.Options{
		Workers: w,
		Timeout: *timeout,
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if errors.Is(err, sweep.ErrCanceled) {
		return fmt.Errorf("interrupted after %d/%d jobs (%.0fs); 'rairsweep resume' continues from %s",
			sum.Skipped+sum.Ran, sum.Total, time.Since(start).Seconds(), *out)
	}
	if err != nil {
		return err
	}
	fmt.Printf("sweep %s complete: %d jobs (%d ran, %d resumed) in %.0fs -> %s\n",
		m.Name, sum.Total, sum.Ran, sum.Skipped, time.Since(start).Seconds(), *out)
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("rairsweep check", flag.ExitOnError)
	storePath := fs.String("store", "", "result store to check (required)")
	summary := fs.String("summary", "", "also write a markdown summary of the store to this path")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *storePath == "" {
		fs.Usage()
		return fmt.Errorf("-store is required")
	}
	recs, err := sweep.LoadStore(*storePath)
	if err != nil {
		return err
	}
	rep := sweep.CheckStore(recs, rair.Guards())
	fmt.Println(rep)
	known, problems := rair.GuardVerdict(rep)
	for _, r := range known {
		fmt.Printf("recorded %s: a known failure\n", r)
	}
	if *summary != "" {
		f, err := os.Create(*summary)
		if err != nil {
			return err
		}
		if err := sweep.WriteSummary(f, *storePath, recs, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *summary)
	}
	if len(rep.Findings) == 0 {
		return fmt.Errorf("no guarded experiments in %s (%d records)", *storePath, len(recs))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d guard finding(s) break the verdict:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("rairsweep diff", flag.ExitOnError)
	aPath := fs.String("a", "", "baseline store (required)")
	bPath := fs.String("b", "", "candidate store (required)")
	tol := fs.Float64("tol", 0, "max allowed |relative delta| per numeric cell (0 = exact)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *aPath == "" || *bPath == "" {
		fs.Usage()
		return fmt.Errorf("-a and -b are required")
	}
	a, err := sweep.LoadStore(*aPath)
	if err != nil {
		return err
	}
	b, err := sweep.LoadStore(*bPath)
	if err != nil {
		return err
	}
	rep := sweep.DiffStores(a, b)
	fmt.Println(rep)
	if !rep.Within(*tol) {
		return fmt.Errorf("stores differ beyond tolerance %.4f (see above)", *tol)
	}
	return nil
}
