// Command rairsim runs one NoC simulation described by a JSON file and
// prints its latency report.
//
// Usage:
//
//	rairsim -f sim.json
//	rairsim -f sim.json -record record.json -telemetry-trace 1000
//	rairsim -f sim.json -faults drop=0.001,corrupt=0.001 -check-invariants
//	rairsim -example            # print an example configuration
//
// The file schema is documented in internal/config; in short it carries the
// simulation configuration (mesh, region layout, scheme, router
// parameters), the traffic (synthetic apps or the PARSEC proxies, plus an
// optional adversarial injector) and the run phases.
//
// -record PATH writes the run record (rair.Report, DESIGN.md
// "Observability") as JSON: the resolved configuration, the results, and
// the telemetry, attribution, engine and fault sections. It turns every
// observation on; results are bit-identical either way. -telemetry-trace N
// additionally traces every N-th packet's flit lifecycle and writes it as
// Chrome trace_event JSON beside the record (record.trace.json); load it in
// chrome://tracing or https://ui.perfetto.dev. -metrics-addr HOST:PORT
// serves the record live, once per telemetry window, as Prometheus text at
// /metrics and JSON at /snapshot.
//
// -faults injects deterministic seeded faults (link flit drops and
// corruptions recovered by retransmission, credit leaks repaired by
// reconciliation, transient router stalls); the report then carries a fault
// summary. -check-invariants runs the runtime invariant checker at every
// cycle and fails the run on any violation. See DESIGN.md for both.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rair"
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
  rairsim -f sim.json -metrics-addr localhost:9464
                                    serve live /metrics (Prometheus text)
                                    and /snapshot (JSON) during the run
  rairsim -f sim.json -faults drop=0.001,corrupt=0.001 -check-invariants

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
	record, metricsAddr    string
	cpuprofile, memprofile string
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
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve the record live at /metrics and /snapshot on this address, published once per telemetry window")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this path")
	workers := fs.Int("workers", -1, "tick-engine shard count: -1 = take the config file's value, 0 = auto-select from GOMAXPROCS, >= 1 explicit (results are bit-identical at any count)")
	faultSpec := fs.String("faults", "", "inject deterministic faults, e.g. drop=0.001,corrupt=0.001,leak=0.0005,stall=0.0002")
	checkInv := fs.Bool("check-invariants", false, "run the runtime invariant checker at every cycle; with -faults, also fail the run if a flit is lost for good")
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
	if *faultSpec != "" {
		if f.Config.Faults, err = rair.ParseFaultSpec(*faultSpec); err != nil {
			return nil, o, err
		}
	}
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
	if o.metricsAddr != "" {
		addr, closeObs, err := sim.ServeObs(o.metricsAddr)
		if err != nil {
			return err
		}
		defer closeObs()
		fmt.Fprintf(os.Stderr, "rairsim: serving http://%s/metrics and /snapshot\n", addr)
	}
	rep, err := sim.Run(f.Phases)
	if err != nil {
		return err
	}
	// Header: the resolved shard count the engine actually ran with (the
	// -workers 0 auto-selection and <= 1 serial collapse both land here).
	fmt.Printf("workers: %d\n", rep.Workers)
	fmt.Print(rep)
	if rep.Faults != nil {
		fmt.Println(rep.Faults)
	}
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
		// A flit out of retries travels on damaged and every invariant
		// holds, so permanent loss has to fail the run here.
		if rep.Faults != nil && rep.Faults.Totals.LostFlits > 0 {
			return fmt.Errorf("lost %d flits permanently (retry budget too small for the configured fault rates)", rep.Faults.Totals.LostFlits)
		}
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
