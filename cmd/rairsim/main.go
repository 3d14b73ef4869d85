// Command rairsim runs one NoC simulation described by a JSON file and
// prints its latency report.
//
// Usage:
//
//	rairsim -f sim.json
//	rairsim -f sim.json -record record.json -telemetry-trace 1000
//	rairsim -f sim.json -check-invariants
//	rairsim -example            # print an example configuration
//
// The file schema is documented in internal/config; in short it carries the
// simulation configuration (mesh, region layout, scheme, router
// parameters), the traffic (synthetic apps or the PARSEC proxies, plus an
// optional adversarial injector) and the run phases.
//
// -record PATH writes the run record (rair.Report, DESIGN.md
// "Observability") as JSON: the resolved configuration, the results, and
// the telemetry, attribution and engine sections. It turns every
// observation on; results are bit-identical either way. -telemetry-trace N
// additionally traces every N-th packet's flit lifecycle and writes it as
// Chrome trace_event JSON beside the record (record.trace.json); load it in
// chrome://tracing or https://ui.perfetto.dev.
//
// -check-invariants runs the runtime invariant checker at every cycle and
// fails the run on any violation (DESIGN.md "Runtime invariant checker").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rair/internal/config"
)

const example = `{
  "config": {
    "layout": "halves",
    "scheme": "RA_RAIR",
    "seed": 7
  },
  "apps": [
    {"app": 0, "loadFrac": 0.10, "globalFrac": 0.5},
    {"app": 1, "loadFrac": 0.90}
  ],
  "phases": {"warmup": 10000, "measure": 100000, "drain": 20000}
}`

// usage prints the command summary and flag reference to stderr; it is
// installed as the flag set's Usage so unknown flags exit non-zero with the
// same text.
func usage(fs *flag.FlagSet) {
	fmt.Fprintf(os.Stderr, `usage: rairsim -f sim.json [flags]

Run one NoC simulation described by a JSON file and print its latency
report.

  rairsim -example                  print an example configuration
  rairsim -f sim.json -record record.json -telemetry-trace 1000
                                    write the run record and a Chrome trace
  rairsim -f sim.json -check-invariants
                                    fail the run on any invariant violation

Flags:
`)
	fs.PrintDefaults()
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rairsim:", err)
		os.Exit(1)
	}
}

// options are the command-line settings that do not live in the simulation
// file.
type options struct {
	record, cpuprofile, memprofile string
}

// usageError prints msg and the usage text and exits 2, like an unknown
// flag.
func usageError(fs *flag.FlagSet, msg string) {
	fmt.Fprintln(os.Stderr, "rairsim:", msg)
	fs.Usage()
	os.Exit(2)
}

// configure parses the command line and returns the simulation file with
// the flags folded in. A flag that carries a value (-telemetry-trace,
// -workers) overrides the file only when it was given, so a file's own
// setting survives the flag's default. The file is nil after -example.
func configure(args []string) (*config.File, options, error) {
	var o options
	fs := flag.NewFlagSet("rairsim", flag.ExitOnError)
	fs.Usage = func() { usage(fs) }
	file := fs.String("f", "", "simulation description (JSON)")
	showExample := fs.Bool("example", false, "print an example configuration and exit")
	fs.StringVar(&o.record, "record", "", "write the run record (JSON) to this path; turns every observation section on")
	telTrace := fs.Uint64("telemetry-trace", 0, "trace every N-th packet's flit lifecycle into a Chrome trace beside the -record path (0 = off)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this path")
	workers := fs.Int("workers", -1, "tick-engine shard count: -1 = take the config file's value, 0 = auto-select from GOMAXPROCS, >= 1 explicit (results are bit-identical at any count)")
	checkInv := fs.Bool("check-invariants", false, "run the runtime invariant checker at every cycle and fail the run on a violation")
	fs.Parse(args)
	if fs.NArg() > 0 {
		usageError(fs, fmt.Sprintf("unexpected arguments: %v", fs.Args()))
	}

	if *showExample {
		fmt.Println(example)
		return nil, o, nil
	}
	if *file == "" {
		usageError(fs, "-f <file.json> required (see -example)")
	}
	f, err := config.Load(*file)
	if err != nil {
		return nil, o, err
	}
	f.Config.Telemetry = f.Config.Telemetry || o.record != ""
	f.Config.CheckInvariants = f.Config.CheckInvariants || *checkInv
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "telemetry-trace" {
			if o.record == "" {
				usageError(fs, "-telemetry-trace writes its trace beside the record: give -record")
			}
			f.Config.TelemetryTraceEvery = *telTrace
		}
	})
	switch {
	case *workers == 0:
		f.Config.Workers = runtime.GOMAXPROCS(0)
	case *workers > 0:
		f.Config.Workers = *workers
	}
	return f, o, nil
}

func run(args []string) error {
	f, o, err := configure(args)
	if f == nil {
		return err
	}

	if o.cpuprofile != "" {
		cf, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	sim, err := f.Build()
	if err != nil {
		return err
	}
	rep, err := sim.Run(f.Phases)
	if err != nil {
		return err
	}
	// Header: the resolved shard count the engine actually ran with (the
	// -workers 0 auto-selection and <= 1 serial collapse both land here).
	fmt.Printf("workers: %d\n", rep.Workers)
	fmt.Print(rep)
	if o.record != "" {
		if err := writeFile(o.record, rep.WriteJSON); err != nil {
			return err
		}
		if rep.Config.TelemetryTraceEvery > 0 {
			if err := writeFile(strings.TrimSuffix(o.record, ".json")+".trace.json", rep.WriteChromeTrace); err != nil {
				return err
			}
		}
	}
	if f.Config.CheckInvariants {
		fmt.Println("invariants: all checks passed")
	}

	if o.memprofile != "" {
		mf, err := os.Create(o.memprofile)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path, fills it with write and notes it on stderr, so
// stdout stays the text report.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "rairsim: wrote", path)
	return f.Close()
}
