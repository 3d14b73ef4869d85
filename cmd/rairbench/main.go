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
// commentary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rair"
	"rair/internal/harness"
	"rair/internal/obs"
	"rair/internal/sweep"
)

// benchResults is the machine-readable file written by -json: a history of
// date-keyed entries, newest last, so successive runs accumulate a record
// instead of overwriting the previous measurement.
type benchResults struct {
	History []benchEntry `json:"history"`
}

// benchEntry is one -json measurement: simulator speed (serial engine and
// sharded engine across a worker sweep) plus the paper's headline APL
// reductions and per-experiment wall time.
type benchEntry struct {
	Date       string  `json:"date"`
	Quick      bool    `json:"quick"`
	Seed       uint64  `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CyclesPerS float64 `json:"cycles_per_s_serial"`
	// CyclesPerSSharded records the sharded tick engine at each worker
	// count of the sweep, keyed by the count. The 1-worker figure is the
	// sharded engine's coordination overhead made visible (one goroutine
	// paying barrier costs the serial engine doesn't) — it is expected to
	// sit below cycles_per_s_serial, not a regression.
	CyclesPerSSharded map[string]float64 `json:"cycles_per_s_sharded"`
	// CyclesPerSMesh32 is the 32×32-mesh (1024-router) scaling probe;
	// ProbeCycles the simulated-cycle budget every speed probe above ran
	// with (the -cycles flag).
	CyclesPerSMesh32 float64 `json:"cycles_per_s_mesh32,omitempty"`
	ProbeCycles      int     `json:"probe_cycles,omitempty"`
	// HeadlineReduction is Figure 14's average APL reduction versus RO_RR
	// per scheme (the paper's headline result).
	HeadlineReduction map[string]float64 `json:"fig14_avg_apl_reduction_vs_RO_RR"`
	Experiments       []experimentTiming `json:"experiments"`
	// Scaling is the -scaling worker sweep over big meshes (1k/2k/4k
	// routers): engine speed plus barrier-wait cost per shard count.
	Scaling []scalingPoint `json:"scaling,omitempty"`
}

// scalingPoint is one (mesh, workers) cell of the -scaling sweep: sharded
// engine speed and the coordinator's barrier-wait bill, which is the
// quantity that decides whether more shards still pay at a given mesh size.
type scalingPoint struct {
	MeshW   int `json:"mesh_w"`
	MeshH   int `json:"mesh_h"`
	Routers int `json:"routers"`
	Workers int `json:"workers"`
	// CyclesPerS is simulated cycles per wall second.
	CyclesPerS float64 `json:"cycles_per_s"`
	// BarrierWaitNSPerCycle is the coordinator's total post-phase barrier
	// wait divided by simulated cycles (0 for the serial engine, which has
	// no barriers).
	BarrierWaitNSPerCycle float64 `json:"barrier_wait_ns_per_cycle"`
	// BarrierHist is the log2-nanosecond barrier-wait histogram summed
	// across phases: BarrierHist[k] counts waits in [2^(k-1), 2^k) ns.
	BarrierHist []int64 `json:"barrier_hist,omitempty"`
}

type experimentTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// appendBenchEntry loads the history file at path (if any), appends entry,
// and writes the file back.
func appendBenchEntry(path string, entry benchEntry) error {
	var res benchResults
	if buf, err := os.ReadFile(path); err == nil {
		if jerr := json.Unmarshal(buf, &res); jerr != nil || res.History == nil {
			return fmt.Errorf("unrecognized results schema in %s", path)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	res.History = append(res.History, entry)
	buf, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// probe runs the standard speed-probe scenario under cfg for `cycles` cycles:
// the quadrant layout under moderate uniform load with RA_RAIR, the same
// scenario as BenchmarkSimulatorThroughput. Every speed probe takes the cycle
// budget from the single -cycles flag so the CI smoke, the saturated probe
// and the worker sweep cannot drift apart.
func probe(cfg rair.Config, cycles int) (cyclesPerS float64, rep *rair.Report) {
	cfg.Layout, cfg.Scheme, cfg.Seed = rair.LayoutQuadrants, "RA_RAIR", 1
	sim, err := rair.New(cfg)
	if err != nil {
		panic(err)
	}
	for a := 0; a < 4; a++ {
		if err := sim.AddApp(rair.AppSpec{App: a, LoadFrac: 0.5, GlobalFrac: 0.2}); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	rep, err = sim.Run(rair.Phases{Warmup: 0, Measure: int64(cycles), Drain: 0})
	if err != nil {
		panic(err)
	}
	return float64(cycles) / time.Since(start).Seconds(), rep
}

// throughput measures simulator speed in cycles/s on the 64-node probe with
// the given tick-engine worker count (0 = serial engine).
func throughput(workers, cycles int) float64 {
	cps, _ := probe(rair.Config{Workers: workers}, cycles)
	return cps
}

// throughputMesh32 measures the scaling probe: the same scenario on a 32×32
// mesh (1024 routers), where shard balance and cache footprint, not
// per-router cost, dominate.
func throughputMesh32(cycles int) float64 {
	cps, _ := probe(rair.Config{MeshW: 32, MeshH: 32}, cycles)
	return cps
}

// scalingProbe measures one cell of the scaling sweep: the quadrant
// scenario on a w×h mesh advanced by `workers` shards (0 = serial engine)
// with engine self-profiling on, so the point carries both speed and the
// barrier-wait bill behind it.
func scalingProbe(w, h, workers, cycles int) scalingPoint {
	cps, rep := probe(rair.Config{MeshW: w, MeshH: h, Workers: workers, Profile: true}, cycles)
	pt := scalingPoint{MeshW: w, MeshH: h, Routers: w * h, Workers: workers, CyclesPerS: cps}
	if rep.Engine != nil && len(rep.Engine.Barrier) > 0 {
		var waitNS int64
		var hist []int64
		for _, bp := range rep.Engine.Barrier {
			waitNS += bp.WaitNS
			if hist == nil {
				hist = make([]int64, len(bp.Hist))
			}
			for k, c := range bp.Hist {
				hist[k] += c
			}
		}
		pt.BarrierWaitNSPerCycle = float64(waitNS) / float64(cycles)
		pt.BarrierHist = hist
	}
	return pt
}

// scalingSweep runs the full worker × mesh grid of the -scaling probe:
// 32×32 (1024 routers), 64×32 (2048) and 64×64 (4096), each at every
// worker count, printing the curve as it accumulates. A worker count above
// the cores the process may use would measure goroutines time-slicing, not
// the engine, so it is reported as invalid and yields no point.
func scalingSweep(workerList []int, cycles int) []scalingPoint {
	cores := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var pts []scalingPoint
	fmt.Printf("%-8s %8s %8s %14s %22s\n", "mesh", "routers", "workers", "cycles/s", "barrier ns/cycle")
	for _, m := range [][2]int{{32, 32}, {64, 32}, {64, 64}} {
		for _, w := range workerList {
			if w > cores {
				fmt.Printf("%-8s %8d %8d   invalid: workers > cores (%d)\n",
					fmt.Sprintf("%dx%d", m[0], m[1]), m[0]*m[1], w, cores)
				continue
			}
			pt := scalingProbe(m[0], m[1], w, cycles)
			pts = append(pts, pt)
			fmt.Printf("%-8s %8d %8d %14.0f %22.1f\n",
				fmt.Sprintf("%dx%d", m[0], m[1]), pt.Routers, pt.Workers,
				pt.CyclesPerS, pt.BarrierWaitNSPerCycle)
		}
	}
	return pts
}

// obsOpts carries the observability-export flags into the probe runs:
// a live /metrics address and/or a one-shot snapshot path. Either one turns
// on interference attribution and engine self-profiling for the run.
type obsOpts struct{ addr, report string }

func (o obsOpts) enabled() bool { return o.addr != "" || o.report != "" }

// arm enables the attribution and profiling layers on cfg when any
// observability export was requested.
func (o obsOpts) arm(cfg *rair.Config) {
	if o.enabled() {
		cfg.Attribution = true
		cfg.Profile = true
	}
}

// attach starts the live endpoint (when requested) on a built simulation;
// the returned cleanup is always safe to defer.
func (o obsOpts) attach(sim *rair.Simulation) (func(), error) {
	if o.addr == "" {
		return func() {}, nil
	}
	srv, err := obs.NewServer(o.addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "rairbench: serving http://%s/metrics and /snapshot\n", srv.Addr())
	sim.SetObsServer(srv, 256)
	return func() { srv.Close() }, nil
}

// dump writes the one-shot snapshot (when requested) from a finished run.
func (o obsOpts) dump(rep *rair.Report) error {
	if o.report == "" {
		return nil
	}
	snap := &obs.Snapshot{Engine: rep.Engine}
	if tel := rep.Telemetry; tel != nil {
		t := tel.Totals()
		snap.Totals = &t
		snap.Attribution = tel.Attribution()
		snap.Cycle = tel.Now()
	}
	if err := snap.WriteFile(o.report); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.report)
	return nil
}

// telemetryRun executes the standard throughput probe scenario with
// telemetry enabled and writes the aggregated report to path (JSON). The
// RAIR scheme with cross-region traffic exercises every counter family:
// MSP grants/denials, DPA transitions and windowed OVC_f/OVC_n samples.
func telemetryRun(path string, quick bool, seed uint64, traceEvery uint64, ob obsOpts) error {
	cfg := rair.Config{
		Layout: rair.LayoutQuadrants, Scheme: "RA_RAIR", Seed: seed,
		Telemetry: true, TelemetryTraceEvery: traceEvery,
	}
	ob.arm(&cfg)
	sim, err := rair.New(cfg)
	if err != nil {
		return err
	}
	for a := 0; a < 4; a++ {
		if err := sim.AddApp(rair.AppSpec{App: a, LoadFrac: 0.5, GlobalFrac: 0.2}); err != nil {
			return err
		}
	}
	cleanup, err := ob.attach(sim)
	if err != nil {
		return err
	}
	defer cleanup()
	ph := rair.PaperPhases()
	if quick {
		ph = rair.QuickPhases()
	}
	rep, err := sim.Run(ph)
	if err != nil {
		return err
	}
	if err := ob.dump(rep); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr := rep.Telemetry.Report()
	if err := tr.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d link flits, %d DPA transitions, %d windows at node 0)\n",
		path, tr.Totals.LinkFlits, tr.Totals.DPAToNativeHigh+tr.Totals.DPAToForeignHigh,
		len(tr.Routers[0].Windows))
	return f.Close()
}

// faultRun executes the standard probe scenario with the invariant checker
// enabled and (when spec is non-empty) fault injection: a seeded smoke
// proving the network drains, delivers every packet and passes every
// invariant while links drop, corrupt and leak and routers stall. CI uses
// it as the fault-injection smoke job.
func faultRun(spec string, quick bool, seed uint64, ob obsOpts) error {
	var fs *rair.FaultSpec
	if spec != "" {
		var err error
		if fs, err = rair.ParseFaultSpec(spec); err != nil {
			return err
		}
	}
	cfg := rair.Config{
		Layout: rair.LayoutQuadrants, Scheme: "RA_RAIR", Seed: seed,
		Faults: fs, CheckInvariants: true,
	}
	ob.arm(&cfg)
	sim, err := rair.New(cfg)
	if err != nil {
		return err
	}
	for a := 0; a < 4; a++ {
		if err := sim.AddApp(rair.AppSpec{App: a, LoadFrac: 0.5, GlobalFrac: 0.2}); err != nil {
			return err
		}
	}
	cleanup, err := ob.attach(sim)
	if err != nil {
		return err
	}
	defer cleanup()
	ph := rair.PaperPhases()
	if quick {
		ph = rair.QuickPhases()
	}
	rep, err := sim.Run(ph)
	if err != nil {
		return err
	}
	if err := ob.dump(rep); err != nil {
		return err
	}
	if rep.Faults != nil {
		if rep.Faults.LostFlits > 0 {
			return fmt.Errorf("fault run lost %d flits permanently (retry budget too small for the configured rates)", rep.Faults.LostFlits)
		}
		fmt.Printf("fault smoke passed: %d packets delivered under faults, all invariants held\n  %s\n",
			rep.Packets, rep.Faults)
	} else {
		fmt.Printf("invariant smoke passed: %d packets delivered, all invariants held\n", rep.Packets)
	}
	return nil
}

// emitSweepManifest writes a rairsweep manifest covering the experiment
// registry (or just `only` when set) so sweeps are declared against the
// same names rairbench -list reports.
func emitSweepManifest(path, only, seedList string, quick bool) error {
	var seeds []uint64
	for _, s := range strings.Split(seedList, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil || v == 0 {
			return fmt.Errorf("-manifest-seeds: bad seed %q (need integers >= 1)", s)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return fmt.Errorf("-manifest-seeds: no seeds given")
	}
	var names []string
	for _, e := range rair.Experiments() {
		if only == "" || e.Name == only {
			names = append(names, e.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no experiment named %q (see -list)", only)
	}
	mname := "full-reproduction"
	if quick {
		mname = "quick-reproduction"
	}
	if only != "" {
		mname = only
	}
	m := sweep.NewManifest(mname, names, seeds, quick)
	if err := sweep.WriteManifest(m, path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d experiments x %d seeds, %s durations)\n",
		path, len(names), len(seeds), map[bool]string{true: "quick", false: "paper"}[quick])
	return nil
}

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
  rairbench -json BENCH_results.json
                               append a machine-readable entry (simulator
                               speed across a worker sweep, headline
                               reductions, timings) to the history file

Flags:
`)
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	quick := flag.Bool("quick", false, "use reduced warmup/measurement windows")
	name := flag.String("experiment", "", "run a single experiment (see -list)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	cycles := flag.Int("cycles", 20000, "simulated-cycle budget shared by every speed probe (-json serial/sharded/mesh32)")
	list := flag.Bool("list", false, "list experiments and exit")
	csvDir := flag.String("csv", "", "also write each experiment's table as CSV into this directory")
	jsonPath := flag.String("json", "", "write a machine-readable summary (cycles/s, headline reductions, timings) to this path, e.g. BENCH_results.json")
	telemetry := flag.Bool("telemetry", false, "also run the standard probe scenario with telemetry and write its report")
	telOut := flag.String("telemetry-out", "telemetry.json", "telemetry report path (with -telemetry)")
	telTrace := flag.Uint64("telemetry-trace", 1000, "trace every N-th packet in the telemetry probe (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	scaling := flag.Bool("scaling", false, "run only the engine-scaling probe (worker sweep over 1k/2k/4k-router meshes); with -json, append the curve to the history file")
	scalingWorkers := flag.String("scaling-workers", "1,2,4,8", "comma-separated worker counts for -scaling (0 = serial engine); counts above min(NumCPU, GOMAXPROCS) are skipped as invalid")
	faultSpec := flag.String("faults", "", "run only the fault-injection smoke scenario with this spec, e.g. drop=0.001,corrupt=0.001,stall=0.0002 (implies -check-invariants)")
	checkInv := flag.Bool("check-invariants", false, "run only the invariant-checked probe scenario (no experiments); combine with -faults for the fault smoke")
	emitManifest := flag.String("emit-manifest", "", "write a rairsweep manifest covering the known experiments (honors -quick, -experiment, -manifest-seeds) to this path and exit")
	manifestSeeds := flag.String("manifest-seeds", "1", "comma-separated seed list for -emit-manifest")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics and /snapshot during the probe run (with -telemetry, -faults or -check-invariants)")
	obsReport := flag.String("obs-report", "", "write the probe run's observability snapshot to this path, .json or .csv (implies -telemetry unless a fault/invariant probe is selected)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rairbench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	ob := obsOpts{addr: *metricsAddr, report: *obsReport}
	if ob.enabled() && *faultSpec == "" && !*checkInv {
		*telemetry = true
	}

	if *emitManifest != "" {
		if err := emitSweepManifest(*emitManifest, *name, *manifestSeeds, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
		return
	}

	if *faultSpec != "" || *checkInv {
		if err := faultRun(*faultSpec, *quick, *seed, ob); err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
		return
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

	if *scaling {
		var workerList []int
		for _, s := range strings.Split(*scalingWorkers, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			w, err := strconv.Atoi(s)
			if err != nil || w < 0 {
				fmt.Fprintf(os.Stderr, "rairbench: -scaling-workers: bad count %q\n", s)
				os.Exit(2)
			}
			workerList = append(workerList, w)
		}
		if len(workerList) == 0 {
			fmt.Fprintln(os.Stderr, "rairbench: -scaling-workers: no counts given")
			os.Exit(2)
		}
		pts := scalingSweep(workerList, *cycles)
		if *jsonPath != "" && len(pts) > 0 {
			entry := benchEntry{
				Date:        time.Now().UTC().Format(time.RFC3339),
				Quick:       *quick,
				Seed:        *seed,
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				ProbeCycles: *cycles,
				Scaling:     pts,
			}
			if err := appendBenchEntry(*jsonPath, entry); err != nil {
				fmt.Fprintln(os.Stderr, "rairbench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d scaling points)\n", *jsonPath, len(pts))
		}
		return
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
	}

	var timings []experimentTiming
	run := func(n string) {
		start := time.Now()
		out, csv, err := rair.ExperimentCSV(n, *quick, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
		secs := time.Since(start).Seconds()
		timings = append(timings, experimentTiming{Name: n, Seconds: secs})
		fmt.Printf("=== %s (%.1fs)\n%s\n", n, secs, out)
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
	if *telemetry {
		if err := telemetryRun(*telOut, *quick, *seed, *telTrace, ob); err != nil {
			fmt.Fprintln(os.Stderr, "rairbench:", err)
			os.Exit(1)
		}
	}
	if *jsonPath == "" {
		return
	}

	// Machine-readable summary: simulator speed (serial engine, sharded
	// engine at each worker count), the Figure 14 headline reductions, and
	// the per-experiment wall times — appended to the file's history rather
	// than overwriting it.
	entry := benchEntry{
		Date:              time.Now().UTC().Format(time.RFC3339),
		Quick:             *quick,
		Seed:              *seed,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		CyclesPerS:        throughput(0, *cycles),
		CyclesPerSSharded: map[string]float64{},
		CyclesPerSMesh32:  throughputMesh32(*cycles),
		ProbeCycles:       *cycles,
		HeadlineReduction: map[string]float64{},
		Experiments:       timings,
	}
	for _, w := range []int{1, 2, 4} {
		entry.CyclesPerSSharded[strconv.Itoa(w)] = throughput(w, *cycles)
	}
	dur := harness.PaperDurations()
	if *quick {
		dur = harness.QuickDurations()
	}
	fig14 := harness.Fig14SixApp(dur, *seed)
	for si := 1; si < len(fig14.Schemes); si++ {
		entry.HeadlineReduction[fig14.Schemes[si]] = fig14.AvgReduction(si)
	}
	if err := appendBenchEntry(*jsonPath, entry); err != nil {
		fmt.Fprintln(os.Stderr, "rairbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%.0f cycles/s serial; sharded x1 %.0f, x2 %.0f, x4 %.0f; mesh32 %.0f)\n",
		*jsonPath, entry.CyclesPerS,
		entry.CyclesPerSSharded["1"], entry.CyclesPerSSharded["2"], entry.CyclesPerSSharded["4"],
		entry.CyclesPerSMesh32)
}
