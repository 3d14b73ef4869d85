// Command rairbench reproduces the paper's evaluation: every table and
// figure has a named experiment that regenerates its rows.
//
// Usage:
//
//	rairbench -list              # show available experiments
//	rairbench                    # run everything at paper durations
//	rairbench -quick             # run everything at reduced durations
//	rairbench -experiment fig14  # run one experiment
//
// Results print as aligned tables; see EXPERIMENTS.md for paper-vs-measured
// commentary. Simulator speed is measured by bench/rairperf, a single
// scenario is run and inspected with rairsim, and seeds of many experiments
// are swept, checked and scored by rairsweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rair"
)

// usage prints the command summary and flag reference to stderr; it is
// installed as flag.Usage so unknown flags exit non-zero with the same text.
func usage() {
	fmt.Fprintf(os.Stderr, `usage: rairbench [flags]

Reproduce the paper's evaluation: every table and figure has a named
experiment that regenerates its rows.

  rairbench -list              show available experiments
  rairbench                    run everything at paper durations
  rairbench -quick             run everything at reduced durations
  rairbench -experiment fig14  run one experiment

Flags:
`)
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	quick := flag.Bool("quick", false, "use reduced warmup/measurement windows")
	name := flag.String("experiment", "", "run a single experiment (see -list)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiments and exit")
	csvDir := flag.String("csv", "", "also write each experiment's table as CSV into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rairbench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprofile != "" {
		cf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			mf, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rairbench:", err)
				return
			}
			defer mf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "rairbench:", err)
			}
		}()
	}

	if *list {
		for _, e := range rair.Experiments() {
			fmt.Printf("%-13s %s\n", e.Name, e.Paper)
		}
		return
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
	}

	run := func(n string) {
		start := time.Now()
		out, csv, err := rair.ExperimentCSV(n, *quick, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.1fs)\n%s\n", n, time.Since(start).Seconds(), out)
		if *csvDir != "" && csv != "" {
			path := filepath.Join(*csvDir, n+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "rairbench:", err)
				os.Exit(1)
			}
		}
	}

	if *name != "" {
		run(*name)
	} else {
		for _, e := range rair.Experiments() {
			run(e.Name)
		}
	}
}
