// Command rairsim runs one NoC simulation described by a JSON file and
// prints its latency report.
//
// Usage:
//
//	rairsim -f sim.json
//	rairsim -f sim.json -telemetry -telemetry-out tel.json
//	rairsim -f sim.json -faults drop=0.001,corrupt=0.001 -check-invariants
//	rairsim -example            # print an example configuration
//
// The file schema is documented in internal/config; in short it carries the
// simulation configuration (mesh, region layout, scheme, router
// parameters), the traffic (synthetic apps or the PARSEC proxies, plus an
// optional adversarial injector) and the run phases.
//
// -telemetry instruments every router with MSP arbitration counters, DPA
// transition counts and windowed occupancy/utilization series, written as
// JSON (or CSV when the output path ends in .csv). With -telemetry-trace N
// every N-th packet's flit lifecycle is additionally exported as Chrome
// trace_event JSON next to the telemetry output; load it in
// chrome://tracing or https://ui.perfetto.dev.
//
// -faults injects deterministic seeded faults (link flit drops and
// corruptions recovered by retransmission, credit leaks repaired by
// reconciliation, transient router stalls); the report then carries a fault
// summary. -check-invariants runs the runtime invariant checker at every
// cycle and fails the run on any violation. See DESIGN.md for both.
//
// Observability (DESIGN.md "Observability"): -attribution turns on the
// interference blame accountant, decomposing each packet's latency into
// native / foreign-region / escape-VC / fault stall cycles;
// -metrics-addr HOST:PORT serves live Prometheus text at /metrics and a
// JSON snapshot at /snapshot while the run is in flight; -obs-report PATH
// dumps the final snapshot to PATH (.json or .csv). The latter two imply
// -attribution and engine self-profiling.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rair"
	"rair/internal/config"
	"rair/internal/obs"
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
  rairsim -f sim.json -telemetry -telemetry-out tel.json
  rairsim -f sim.json -attribution -obs-report obs.json
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
	telOut                 string
	cpuprofile, memprofile string
	metricsAddr, obsReport string
	metricsEvery           int64
}

// configure parses the command line and returns the simulation file with
// the flags folded in. A flag that carries a value (-telemetry-window,
// -telemetry-trace, -workers) overrides the file only when it was given, so
// a file's own setting survives the flag's default. The file is nil after
// -example.
func configure(args []string) (*config.File, options, error) {
	var o options
	fs := flag.NewFlagSet("rairsim", flag.ExitOnError)
	fs.Usage = func() { usage(fs) }
	file := fs.String("f", "", "simulation description (JSON)")
	showExample := fs.Bool("example", false, "print an example configuration and exit")
	telemetry := fs.Bool("telemetry", false, "collect per-router telemetry (counters + windowed series)")
	fs.StringVar(&o.telOut, "telemetry-out", "telemetry.json", "telemetry report path (.json or .csv)")
	telWindow := fs.Int64("telemetry-window", 0, "telemetry sampling window in cycles (0 = default 256)")
	telTrace := fs.Uint64("telemetry-trace", 0, "trace every N-th packet's flit lifecycle (0 = off)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this path")
	workers := fs.Int("workers", -1, "tick-engine shard count: -1 = take the config file's value, 0 = auto-select from GOMAXPROCS, >= 1 explicit (results are bit-identical at any count)")
	faultSpec := fs.String("faults", "", "inject deterministic faults, e.g. drop=0.001,corrupt=0.001,leak=0.0005,stall=0.0002")
	checkInv := fs.Bool("check-invariants", false, "run the runtime invariant checker at every cycle; with -faults, also fail the run if a flit is lost for good")
	attribution := fs.Bool("attribution", false, "enable the interference blame accountant (implies -telemetry collection)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live /metrics and /snapshot on this address during the run (implies -attribution and engine self-profiling)")
	fs.Int64Var(&o.metricsEvery, "metrics-every", 256, "publish a fresh snapshot to -metrics-addr every N cycles")
	fs.StringVar(&o.obsReport, "obs-report", "", "write the final observability snapshot to this path, .json or .csv (implies -attribution and engine self-profiling)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rairsim: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		os.Exit(2)
	}

	if *showExample {
		fmt.Println(example)
		return nil, o, nil
	}
	if *file == "" {
		fmt.Fprintln(os.Stderr, "rairsim: -f <file.json> required (see -example)")
		fs.Usage()
		os.Exit(2)
	}
	f, err := config.Load(*file)
	if err != nil {
		return nil, o, err
	}
	obsOn := o.metricsAddr != "" || o.obsReport != ""
	f.Config.Attribution = f.Config.Attribution || *attribution || obsOn
	f.Config.Profile = f.Config.Profile || obsOn
	f.Config.CheckInvariants = f.Config.CheckInvariants || *checkInv
	fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "telemetry-window":
			f.Config.TelemetryWindow = *telWindow
		case "telemetry-trace":
			f.Config.TelemetryTraceEvery = *telTrace
		}
	})
	if *telemetry || *telTrace > 0 {
		f.Config.Telemetry = true
	}
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
		addr, closeObs, err := sim.ServeObs(o.metricsAddr, o.metricsEvery)
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
	if o.obsReport != "" {
		// -obs-report implies attribution, so the collector is always there.
		if err := obs.Snap(rep.Telemetry.Now(), rep.Telemetry, rep.Engine).WriteFile(o.obsReport); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.obsReport)
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

	// The telemetry file is tied to the explicit telemetry flags:
	// -attribution alone creates a collector (the accountant lives in it)
	// but should not surprise the user with a telemetry.json.
	if rep.Telemetry == nil || !f.Config.Telemetry {
		return nil
	}
	if err := writeTelemetry(rep, o.telOut); err != nil {
		return err
	}
	if f.Config.TelemetryTraceEvery > 0 {
		tracePath := tracePathFor(o.telOut)
		tf, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		if err := rep.Telemetry.WriteChromeTrace(tf); err != nil {
			return err
		}
		fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	}
	return nil
}

// writeTelemetry writes the aggregated telemetry report as JSON, or CSV
// when the path ends in .csv.
func writeTelemetry(rep *rair.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr := rep.Telemetry.Report()
	if strings.HasSuffix(path, ".csv") {
		err = tr.WriteCSV(f)
	} else {
		err = tr.WriteJSON(f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}

// tracePathFor derives the Chrome trace path from the telemetry output path:
// report.json -> report.trace.json.
func tracePathFor(out string) string {
	for _, ext := range []string{".json", ".csv"} {
		if strings.HasSuffix(out, ext) {
			return strings.TrimSuffix(out, ext) + ".trace.json"
		}
	}
	return out + ".trace.json"
}
