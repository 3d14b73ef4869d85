// Command rairperf is the repository's benchmark: six workloads, each run in
// a child process of its own, end-to-end host and accuracy metrics from
// untraced runs and a per-layer budget from one traced run. BENCHMARK.json
// at the repository root declares the same metrics and workloads; README.md
// beside this package describes them.
//
//	rairperf -seed 1                      every workload: 3 untraced runs + 1 traced
//	rairperf -workload quad8 -trace 0     one untraced run of one workload
//	rairperf compare a.json b.json        two result files against the bounds
//
// With -trace and a single -workload the last line of standard output is the
// one-object JSON summary the benchmark driver reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout keeps any one run inside the driver's 180 s limit.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of a timed window at today's speed; fixes its cycle count")
		names    = flag.String("workload", "", "comma-separated workloads (default all)")
		trace    = flag.String("trace", "", "0: untraced runs only, 1: the traced run only (default both)")
		repeats  = flag.Int("repeats", 0, "untraced runs per workload (default 3, or 1 with -trace)")
		jsonPath = flag.String("json", "", "result file (default bench/out/results.json)")
		child    = flag.Bool("child", false, "run one workload in this process and print its record (internal)")
		outDir   = flag.String("out", "", "directory for the child's trace file (internal)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != "" && *trace != "0" && *trace != "1") {
		flag.Usage()
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(*names, *seed, *seconds, *trace == "1", *outDir))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := parentMain(ctx, options{seed: *seed, seconds: *seconds, names: *names,
		trace: *trace, repeats: *repeats, jsonPath: *jsonPath})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rairperf:", err)
	}
	stop()
	os.Exit(code)
}

func childMain(name string, seed uint64, seconds int, traced bool, outDir string) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "rairperf: unknown workload %q\n", name)
		return 2
	}
	rec, err := runWorkload(runSpec{Workload: name, Seed: seed, Seconds: seconds,
		Sizes: w.sizes(seconds), Traced: traced, OutDir: outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rairperf:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "rairperf:", err)
		return 1
	}
	return 0
}

type options struct {
	seed     uint64
	seconds  int
	names    string
	trace    string
	repeats  int
	jsonPath string
}

// envStamp says where and from what the numbers came.
type envStamp struct {
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`
}

func stamp(ctx context.Context, root string) envStamp {
	env := envStamp{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown"}
	// Only ask git about a checkout that is one; elsewhere it would go
	// looking through the parent directories.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return env
	}
	if out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		st, err := exec.CommandContext(ctx, "git", "-C", root, "status", "--porcelain").Output()
		env.Dirty = err != nil || len(st) > 0
	}
	return env
}

// findRoot walks up from the working directory to the one that holds
// BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func parentMain(ctx context.Context, o options) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 2, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 2, err
	}
	if o.jsonPath == "" {
		o.jsonPath = filepath.Join(out, "results.json")
	}
	if o.repeats == 0 {
		o.repeats = 3
		if o.trace != "" {
			o.repeats = 1
		}
	}

	selected := workloads
	if o.names != "" {
		selected = nil
		for _, n := range strings.Split(o.names, ",") {
			w := workloadByName(n)
			if w == nil {
				return 2, fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, w)
		}
	}

	res := &results{Env: stamp(ctx, root), Seed: o.seed, Seconds: o.seconds, Repeats: o.repeats}
	st := &store{dir: out, env: res.Env}
	failed := false
	for _, w := range selected {
		wr := &workloadResult{Name: w.name, GOMAXPROCS: w.procs, Workers: w.workers, Cycles: w.sizes(o.seconds)}
		res.Workloads = append(res.Workloads, wr)
		if w.workers > res.Env.NumCPU {
			// No worker count is reported on fewer cores than workers.
			wr.Invalid = fmt.Sprintf("needs %d CPUs, have %d", w.workers, res.Env.NumCPU)
			failed = failed || o.names != ""
			continue
		}
		for pass := 0; pass < 2; pass++ {
			traced := pass == 1
			runs := o.repeats
			if traced {
				runs = 1
			}
			if (traced && o.trace == "0") || (!traced && o.trace == "1") {
				continue
			}
			for r := 0; r < runs; r++ {
				rec, err := spawn(ctx, exe, w, o, traced, out)
				if err != nil {
					return 1, fmt.Errorf("%s: %w", w.name, err)
				}
				st.crossCheck(rec)
				st.put(rec)
				wr.Runs = append(wr.Runs, rec)
			}
		}
		wr.summarize(st)
		wr.print(os.Stdout)
		failed = failed || len(wr.Failures) > 0
	}
	res.print(os.Stdout)
	if err := res.write(o.jsonPath); err != nil {
		return 1, err
	}
	if failed {
		return 1, nil
	}
	if o.trace != "" && len(selected) == 1 {
		return 0, res.Workloads[0].driverLine(os.Stdout, o.trace == "1")
	}
	return 0, nil
}

func traceFlag(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

// spawn runs one run in a fresh process, so that peak memory, allocation
// counts and heap garbage belong to that run alone, with GOMAXPROCS set to
// what the workload is meant to use.
func spawn(ctx context.Context, exe string, w *workload, o options, traced bool, out string) (*runRecord, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", traceFlag(traced), "-out", out)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.procs))
	cmd.Stderr = os.Stderr
	buf, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	rec := &runRecord{}
	if err := json.Unmarshal(buf, rec); err != nil {
		return nil, fmt.Errorf("child record: %w", err)
	}
	return rec, nil
}
