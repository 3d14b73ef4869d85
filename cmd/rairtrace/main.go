// Command rairtrace generates, inspects and replays packet-level traffic
// traces — the trace-driven methodology used for the application
// experiments (the stand-in for the paper's SIMICS+GEMS captures).
//
// Usage:
//
//	rairtrace gen -o parsec.trace -cycles 50000   # capture PARSEC-proxy traffic
//	rairtrace info parsec.trace                   # summarize a trace
//	rairtrace replay -scheme RA_RAIR parsec.trace # replay under a scheme
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"rair/internal/harness"
	"rair/internal/trace"
	"rair/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rairtrace gen|info|replay [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rairtrace:", err)
	os.Exit(1)
}

// gen captures the PARSEC-proxy scenario's injections under the RO_RR
// baseline (trace capture is policy-independent traffic: the memory system
// is closed-loop, so a neutral baseline network is used for timing).
func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("o", "parsec.trace", "output file")
	cycles := fs.Int64("cycles", 50000, "capture length in cycles")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)

	t := harness.RecordPARSECTrace(*cycles, *seed)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d events over %d cycles to %s\n", t.Len(), t.Duration(), *out)
}

func readTrace(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	return t
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	t := readTrace(fs.Arg(0))
	if err := t.Validate(64); err != nil {
		fmt.Println("warning:", err)
	}
	perApp := map[int32]int{}
	flits := 0
	for _, e := range t.Events {
		perApp[e.App]++
		flits += int(e.Size)
	}
	fmt.Printf("%d events, %d flits, %d cycles\n", t.Len(), flits, t.Duration())
	if t.Duration() > 0 {
		fmt.Printf("aggregate rate: %.4f flits/node/cycle (64 nodes)\n",
			float64(flits)/float64(t.Duration())/64)
	}
	profiles := workload.Profiles()
	apps := make([]int32, 0, len(perApp))
	for app := range perApp {
		apps = append(apps, app)
	}
	slices.Sort(apps)
	for _, app := range apps {
		name := fmt.Sprintf("app%d", app)
		if app >= 0 && int(app) < len(profiles) {
			name = profiles[app].Name
		}
		fmt.Printf("  %-14s %d packets\n", name, perApp[app])
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	schemeName := fs.String("scheme", "RO_RR", "interference-reduction scheme")
	warmup := fs.Int64("warmup", 10000, "warmup cycles excluded from statistics")
	drainTimeout := fs.Int64("drain-timeout", 200000, "extra cycles past the trace end before an undrained replay aborts")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	t := readTrace(fs.Arg(0))
	// A timed-out drain means packets never arrived — a failed replay, so
	// it must exit non-zero for scripts and CI, not just warn.
	if err := replayTrace(os.Stdout, t, *schemeName, *warmup, *drainTimeout); err != nil {
		fatal(err)
	}
}

// replayTrace replays t under the named scheme, printing the latency
// summary to w. It returns an error when the trace does not fit the 8×8
// replay mesh, and when the network fails to drain within drainTimeout
// cycles past the trace end (undelivered packets).
func replayTrace(w io.Writer, t *trace.Trace, schemeName string, warmup, drainTimeout int64) error {
	s, err := harness.SchemeByName(schemeName)
	if err != nil {
		return err
	}
	if err := t.Validate(harness.Mesh8().N()); err != nil {
		return err
	}
	r := harness.ReplayPARSEC(t, s, 0, warmup, drainTimeout, 1)
	col := r.Col
	fmt.Fprintf(w, "replayed %d packets under %s in %d cycles\n", r.Injected, s.Name, r.Cycles)
	fmt.Fprintf(w, "APL %.2f (p95 %.1f) over %d measured packets\n",
		col.APL(), col.Total().Percentile(95), col.Packets())
	for _, app := range col.Apps() {
		fmt.Fprintf(w, "  app %d: APL %.2f (%d packets)\n", app, col.App(app).Mean(), col.App(app).Count())
	}
	if !r.Drained {
		return fmt.Errorf("drain timeout: network still undrained %d cycles past the trace end (%d packets injected, %d delivered in the measurement window)",
			drainTimeout, r.Injected, col.Packets())
	}
	return nil
}
