package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rair/internal/harness"
	"rair/internal/invariant"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/telemetry"
	"rair/internal/traffic"
)

// segments is how many parts the timed windows of a run are timed in, each
// next to a reading of the host's speed; a run's cycles/s is the upper
// quartile over them. backlogSamples of their ends also sample the packets in flight.
const (
	segments       = 200
	backlogSamples = 8
)

// setupBudget bounds the repeated set-ups of one run: set-up repeats until
// it has used this much time, at least minSetups and at most maxSetups
// times, and the run reports the median.
const (
	setupBudget = 1500 * time.Millisecond
	minSetups   = 3
	maxSetups   = 25
)

// runSpec names one run of one workload: what a child process executes.
type runSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Seconds is what the run was asked for; Sizes is what that came to.
	Seconds int   `json:"seconds"`
	Sizes   sizes `json:"cycles"`
	Traced  bool  `json:"traced"`
	// Setups fixes how often the run sets up; 0 leaves it to setupBudget.
	// Segments overrides the constant of that name. Tests set both.
	Setups   int `json:"-"`
	Segments int `json:"-"`
	// OutDir receives trace-<workload>.json of a traced run; "" writes
	// nothing.
	OutDir string `json:"-"`
}

// legRecord is one simulation of a run: one scheme over one window. Every
// workload has one leg except fig14-panel, which has one per scheme.
type legRecord struct {
	Scheme string `json:"scheme"`
	Cycles int64  `json:"cycles"`
	// WallS is the timed window as the clock had it and WallAt1S at host
	// speed 1: each segment's time scaled by SegmentSpeed, the host speed
	// read beside it. SegmentRate is each segment's cycles/s at speed 1.
	WallS        float64   `json:"wall_s"`
	WallAt1S     float64   `json:"wall_at_speed_1_s"`
	SegmentRate  []float64 `json:"segment_cycles_per_s"`
	SegmentSpeed []float64 `json:"segment_host_speed"`
	InFlight     []int64   `json:"inflight"`
	Mallocs      uint64    `json:"mallocs"`
	// LiveHeapMB is the heap still in use after a collection forced when
	// the window closes: what the simulator retains.
	LiveHeapMB float64 `json:"live_heap_mb"`
	Created    int64   `json:"created"`
	// WindowPackets is how many packets the source created in the timed
	// window.
	WindowPackets int64     `json:"window_packets"`
	Delivered     int64     `json:"delivered"`
	Attempted     int64     `json:"attempted"`
	Failed        int64     `json:"failed"`
	DrainCycles   int64     `json:"drain_cycles"`
	Digest        string    `json:"digest"`
	APL           float64   `json:"apl_cycles"`
	P95           float64   `json:"p95_cycles"`
	P99           float64   `json:"p99_cycles"`
	AppAPL        []float64 `json:"app_apl_cycles"`
	ReportS       float64   `json:"report_s"`

	// parsec8 only: the memory system's counters after the drain, and its
	// misses in flight when the window closes.
	Memsys         *memsys.Stats `json:"memsys,omitempty"`
	OutstandingEnd int           `json:"outstanding_end,omitempty"`

	// Traced legs only.
	FlitHops int64                `json:"flit_hops,omitempty"`
	Engine   *engineDelta         `json:"engine,omitempty"`
	Spans    map[string]spanTotal `json:"spans,omitempty"`

	nodes int
	cong  bool
	trace *tracer
}

// runRecord is the result of one child process.
type runRecord struct {
	runSpec
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// SetupS is each set-up at host speed 1, SetupRawS as the clock had it.
	SetupS    []float64   `json:"setup_s"`
	SetupRawS []float64   `json:"setup_raw_s"`
	SatCalibS float64     `json:"saturation_calib_s"`
	PrewarmS  float64     `json:"prewarm_s"`
	Legs      []legRecord `json:"legs"`
	Blame     []legBlame  `json:"blame,omitempty"`
	Digest    string      `json:"sim_digest"`
	// CyclesPerS is the upper quartile over the segments of all legs of
	// cycles/s at host speed 1: contention the calibration kernel does not
	// feel only ever slows a segment, so the upper quartile sits nearer the
	// undisturbed rate than the median, and spread half as much on the
	// sizing runs. RawCyclesPerS is the timed cycles over the timed windows'
	// time as the clock had it; HostSpeed that time at speed 1 over itself.
	CyclesPerS    float64 `json:"cycles_per_s"`
	HostSpeed     float64 `json:"host_speed"`
	RawCyclesPerS float64 `json:"raw_cycles_per_s"`
	// PeakRSSMB is the child's VmHWM.
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	DriftPct  float64            `json:"drift_pct"`
	Flags     []string           `json:"flags,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Values    map[string]float64 `json:"values"`
}

func (r *runRecord) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// leg is a live simulation: network, source and collector, driven by
// rairperf's own cycle loop so each layer can be timed from outside.
type leg struct {
	scheme string
	net    *network.Network
	col    *stats.Collector
	src    sim.Tickable
	srcID  spanID
	gen    *traffic.Generator // synthetic workloads
	sys    *memsys.System     // parsec8
	closed *bool              // parsec8: stops the cores issuing
	tel    *telemetry.Collector
	tr     *tracer

	delivered int64
	flitHops  int64
}

type legOpts struct {
	workers   int
	profile   bool
	check     bool
	telemetry bool
	tr        *tracer
}

func newLeg(w *workload, sc *scenario, scheme string, seed uint64, sz sizes, o legOpts, bt *buildTimes) *leg {
	l := &leg{scheme: scheme, tr: o.tr}
	end := sz.Warmup + sz.Timed
	l.col = stats.NewCollector(sz.Warmup, end)
	s := schemeByName(scheme)
	mesh := sc.regs.Mesh()
	p := network.Params{
		Router: sc.cfg, Regions: sc.regs,
		Alg: s.Alg(mesh), Sel: s.Sel(sc.regs, sc.cfg), Policy: s.Policy,
		OnEject: l.eject, Workers: o.workers, Profile: o.profile,
	}
	if o.check {
		p.Check = &invariant.Config{Mode: invariant.ModeCollect}
	}
	if o.telemetry {
		l.tel = telemetry.NewCollector(telemetry.Config{Attribution: true})
		p.Telemetry = l.tel
	}
	var pool *msg.Pool
	if !w.parsec {
		// Nothing but the collector sees a packet, so synthetic runs
		// recycle them, as harness.Run does.
		pool = msg.NewPool()
		p.Recycle = pool.Put
	}
	l.net = network.New(p)
	inject := func(node int, pkt *msg.Packet, now int64) { l.net.Inject(pkt, now) }
	if w.parsec {
		_, streams := harness.PARSECScenario()
		l.closed = new(bool)
		for i, st := range streams {
			streams[i] = gatedStream{inner: st, closed: l.closed}
		}
		l.sys = memsys.New(memsys.DefaultSystemConfig(), sc.regs, streams, seed, inject)
		t0 := time.Now()
		l.sys.Prewarm(harness.PrewarmAccesses)
		bt.prewarm += time.Since(t0)
		l.src, l.srcID = l.sys, spanMemsysTick
		return l
	}
	l.gen = traffic.NewGenerator(sc.apps, seed, inject)
	l.gen.Pool = pool
	l.gen.Until = end
	l.src, l.srcID = l.gen, spanTrafficTick
	return l
}

// eject is the network's OnEject callback: the source layer's completion
// handler, then the collector, each a child span of network.Tick while the
// tracer is on.
func (l *leg) eject(p *msg.Packet, now int64) {
	l.delivered++
	if l.tr == nil || !l.tr.on {
		if l.sys != nil {
			l.sys.HandleEject(p, now)
		}
		l.col.OnEject(p, now)
		return
	}
	l.flitHops += int64(p.Hops * p.Size)
	t0 := time.Now()
	if l.sys != nil {
		l.sys.HandleEject(p, now)
		t1 := time.Now()
		l.tr.add(spanMemsysEject, now, t1.Sub(t0))
		t0 = t1
	}
	l.col.OnEject(p, now)
	l.tr.add(spanStatsEject, now, time.Since(t0))
}

// advance is the cycle loop: source first, then the network, as
// sim.Engine orders them.
func (l *leg) advance(from, to int64) {
	if l.tr == nil || !l.tr.on {
		for now := from; now < to; now++ {
			l.src.Tick(now)
			l.net.Tick(now)
		}
		return
	}
	for now := from; now < to; now++ {
		t0 := time.Now()
		l.src.Tick(now)
		t1 := time.Now()
		l.net.Tick(now)
		t2 := time.Now()
		l.tr.add(l.srcID, now, t1.Sub(t0))
		l.tr.add(spanNetworkTick, now, t2.Sub(t1))
	}
}

// created is how many packets the source has handed to the network.
func (l *leg) created() int64 {
	if l.sys != nil {
		return int64(l.sys.Snapshot().PacketsInjected)
	}
	return int64(l.gen.Created())
}

func (l *leg) drained() bool {
	if !l.net.Drained() {
		return false
	}
	if l.sys == nil {
		return true
	}
	st := l.sys.Snapshot()
	return l.sys.Outstanding() == 0 && st.InvalidationsSent == st.InvAcksReceived
}

// run takes the leg through warm-up, the timed window in n segments and the
// bounded drain, and checks what it can of the result.
func (l *leg) run(rec *runRecord, sz sizes, n int64) legRecord {
	lr := legRecord{Scheme: l.scheme, Cycles: sz.Timed, nodes: l.net.Mesh().N(),
		cong: l.net.CongestionEnabled(), trace: l.tr}
	l.advance(0, sz.Warmup)

	prof0 := l.net.EngineProfile()
	if l.tr != nil {
		l.tr.start(sz.Warmup)
	}
	created0 := l.created()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if n > sz.Timed {
		n = sz.Timed
	}
	speed := hostSpeed()
	for s := int64(0); s < n; s++ {
		from, to := sz.Warmup+sz.Timed*s/n, sz.Warmup+sz.Timed*(s+1)/n
		t0 := time.Now()
		l.advance(from, to)
		d := time.Since(t0).Seconds()
		after := hostSpeed()
		beside := (speed + after) / 2
		speed = after
		lr.WallS += d
		lr.WallAt1S += d * beside
		lr.SegmentSpeed = append(lr.SegmentSpeed, beside)
		lr.SegmentRate = append(lr.SegmentRate, float64(to-from)/(d*beside))
		if (s+1)*backlogSamples/n > s*backlogSamples/n {
			lr.InFlight = append(lr.InFlight, l.net.InFlight())
		}
	}
	runtime.ReadMemStats(&ms1)
	lr.Mallocs = ms1.Mallocs - ms0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	lr.LiveHeapMB = float64(ms1.HeapAlloc) / (1 << 20)
	lr.WindowPackets = l.created() - created0
	if l.tr != nil {
		l.tr.on = false
		lr.FlitHops = l.flitHops
		lr.Engine = diffProfile(prof0, l.net.EngineProfile())
		lr.Spans = l.tr.totals()
	}

	end := sz.Warmup + sz.Timed
	if c, f := l.created(), l.net.InFlight(); c != l.delivered+f {
		rec.failf("%s: created %d != delivered %d + in flight %d at window end", l.scheme, c, l.delivered, f)
	}
	if l.sys != nil {
		lr.OutstandingEnd = l.sys.Outstanding()
		*l.closed = true
	}
	now := end
	for ; now < end+sz.Drain && !l.drained(); now++ {
		l.src.Tick(now)
		l.net.Tick(now)
	}
	lr.DrainCycles = now - end
	lr.Created, lr.Delivered = l.created(), l.delivered
	lr.Attempted, lr.Failed = lr.Created, lr.Created-lr.Delivered
	if l.sys != nil {
		// The closed loop's operations are memory transactions: an L1
		// miss that was not merged into one already in flight.
		st := l.sys.Snapshot()
		lr.Memsys = &st
		lr.Attempted = int64(st.L1Misses - st.MSHRMerges)
		lr.Failed = int64(l.sys.Outstanding())
		if lr.Attempted != int64(st.CompletedMisses)+lr.Failed {
			rec.failf("%s: %d transactions != %d completed + %d outstanding",
				l.scheme, lr.Attempted, st.CompletedMisses, lr.Failed)
		}
	}
	if lr.Created-lr.Delivered != l.net.InFlight() {
		rec.failf("%s: created %d - delivered %d != in flight %d after drain",
			l.scheme, lr.Created, lr.Delivered, l.net.InFlight())
	}

	t0 := time.Now()
	lr.APL = l.col.APL()
	lr.P95 = l.col.Total().Percentile(95)
	lr.P99 = l.col.Total().Percentile(99)
	for _, a := range l.col.Apps() {
		lr.AppAPL = append(lr.AppAPL, l.col.App(a).Mean())
	}
	_ = l.col.Total().Histogram(20)
	lr.Digest = l.digest()
	lr.ReportS = time.Since(t0).Seconds()
	return lr
}

// digest hashes everything the simulated run measured; a change meant only
// to speed the simulator up must leave it alone.
func (l *leg) digest() string {
	h := sha256.New()
	put := func(vs ...float64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	c := l.col
	put(float64(c.Packets()), c.Total().Mean(), c.Network().Mean(), c.Total().Percentile(95),
		c.Total().Percentile(99), c.FlitThroughput(l.net.Mesh().N()), c.Hops().Mean(),
		c.Regional().Mean(), c.Global().Mean())
	for _, a := range c.Apps() {
		put(float64(a), c.App(a).Mean(), float64(c.App(a).Count()))
	}
	if l.sys != nil {
		st := l.sys.Snapshot()
		put(float64(st.L1Hits), float64(st.L1Misses), float64(st.L2Hits), float64(st.L2Misses),
			float64(st.PacketsInjected), float64(st.CompletedMisses), float64(st.InvalidationsSent))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// preflight runs a short copy of every leg with the invariant checker
// collecting, and for a sharded workload a serial copy beside it whose
// digest must agree.
func preflight(rec *runRecord, w *workload, sc *scenario) {
	sz := sizes{Timed: rec.Sizes.Preflight}
	counts := []int{w.workers}
	if w.workers > 1 {
		counts = append(counts, 1)
	}
	for _, scheme := range w.schemes {
		var digests []string
		for _, workers := range counts {
			l := newLeg(w, sc, scheme, rec.Seed, sz, legOpts{workers: workers, check: true}, &buildTimes{})
			l.advance(0, sz.Timed)
			if err := l.net.Checker().Err(); err != nil {
				rec.failf("preflight %s workers=%d: %v", scheme, workers, err)
			}
			digests = append(digests, l.digest())
			l.net.Close()
		}
		if len(digests) == 2 && digests[0] != digests[1] {
			rec.failf("preflight %s: digest %s with %d workers, %s serial", scheme, digests[0], w.workers, digests[1])
		}
	}
}

// runWorkload is one run of one workload, the whole of what a child process
// does: repeated set-up, pre-flight, the legs, and the metrics one run can
// yield by itself.
func runWorkload(spec runSpec) (*runRecord, error) {
	w := workloadByName(spec.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	rec := &runRecord{runSpec: spec, GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: w.workers,
		Values: map[string]float64{}}
	opts := legOpts{workers: w.workers, profile: spec.Traced}

	// Set-up, several times over: region map, saturation calibration,
	// network.New, and for parsec8 memsys.New and Prewarm. The last one
	// built is the one that runs.
	var sc *scenario
	var first *leg
	var sat, pre []float64
	for n, spent := 0, time.Duration(0); moreSetups(spec.Setups, n, spent); n++ {
		if first != nil {
			first.net.Close()
			sc, first = nil, nil
			runtime.GC()
		}
		var bt buildTimes
		if spec.Traced {
			opts.tr = &tracer{}
		}
		speed := hostSpeed()
		t0 := time.Now()
		sc = w.build(&bt)
		first = newLeg(w, sc, w.schemes[0], spec.Seed, spec.Sizes, opts, &bt)
		d := time.Since(t0)
		speed = (speed + hostSpeed()) / 2
		spent += d
		rec.SetupRawS = append(rec.SetupRawS, d.Seconds())
		rec.SetupS = append(rec.SetupS, d.Seconds()*speed)
		sat = append(sat, bt.satCalib.Seconds()*speed)
		pre = append(pre, bt.prewarm.Seconds()*speed)
	}
	rec.SatCalibS, rec.PrewarmS = median(sat), median(pre)

	preflight(rec, w, sc)
	runtime.GC()

	nseg := segments
	if spec.Segments > 0 {
		nseg = spec.Segments
	}

	for i, scheme := range w.schemes {
		l := first
		if i > 0 {
			if spec.Traced {
				opts.tr = &tracer{}
			}
			l = newLeg(w, sc, scheme, spec.Seed, spec.Sizes, opts, &buildTimes{})
		}
		rec.Legs = append(rec.Legs, l.run(rec, spec.Sizes, int64(nseg/len(w.schemes))))
		l.net.Close()
	}
	if spec.Traced && len(w.schemes) > 1 {
		blameLegs(rec, w, sc)
	}

	h := sha256.New()
	var cycles int64
	var wall, wallAt1 float64
	var rates []float64
	for _, lr := range rec.Legs {
		h.Write([]byte(lr.Digest))
		rec.Attempted += lr.Attempted
		rec.Failed += lr.Failed
		cycles += lr.Cycles
		wall += lr.WallS
		wallAt1 += lr.WallAt1S
		rates = append(rates, lr.SegmentRate...)
	}
	rec.Digest = hex.EncodeToString(h.Sum(nil)[:8])
	rec.CyclesPerS, rec.RawCyclesPerS = quartile(rates, 3), float64(cycles)/wall
	rec.HostSpeed = wallAt1 / wall
	rec.PeakRSSMB = peakRSSMB()
	stationarity(rec)
	if len(rec.Failures) > 0 {
		// A run that fails a check has delivered nothing that can be
		// trusted.
		rec.Failed = rec.Attempted
	}
	if spec.Traced {
		layerValues(rec, w)
		if spec.OutDir != "" {
			if err := writeTrace(rec, spec.OutDir); err != nil {
				return nil, err
			}
		}
	} else {
		endToEndValues(rec)
	}
	return rec, nil
}

func moreSetups(fixed, done int, spent time.Duration) bool {
	if fixed > 0 {
		return done < fixed
	}
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

// stationarity compares the two halves of the timed window and looks for a
// backlog that only grows: the check that keeps an operating point without
// a steady state (the chiplet crossbar's, today) out of the benchmark.
func stationarity(rec *runRecord) {
	var first, second []float64
	for _, lr := range rec.Legs {
		half := len(lr.SegmentRate) / 2
		first = append(first, lr.SegmentRate[:half]...)
		second = append(second, lr.SegmentRate[half:]...)
		grows := true
		for s := 1; s < len(lr.InFlight); s++ {
			grows = grows && lr.InFlight[s] >= lr.InFlight[s-1]
		}
		if n := len(lr.InFlight); grows && n > 1 && lr.InFlight[n-1] > 2*lr.InFlight[0]+int64(lr.nodes) {
			rec.Flags = append(rec.Flags, fmt.Sprintf("%s: backlog grows monotonically (%v packets in flight)", lr.Scheme, lr.InFlight))
		}
	}
	rec.DriftPct = 100 * (median(second)/median(first) - 1)
}

// endToEndValues fills the metrics of an untraced run.
func endToEndValues(rec *runRecord) {
	var cycles int64
	var mallocs uint64
	var live float64
	for _, lr := range rec.Legs {
		cycles += lr.Cycles
		mallocs += lr.Mallocs
		live = math.Max(live, lr.LiveHeapMB)
	}
	v := rec.Values
	v["setup_s"] = median(rec.SetupS)
	v["sim_cycles_per_s"] = rec.CyclesPerS
	v["host_live_heap_mb"] = live
	v["host_allocs_per_kcycle"] = 1000 * float64(mallocs) / float64(cycles)
	// Only the panel compares schemes. The others reproduce none of the
	// paper's headline, so their gap is all of it: a constant.
	v["paper_gap_pp"] = paperReductionPct[schemeRAIR]
	if red := reductions(rec.Legs); red != nil {
		v["paper_gap_pp"] = math.Abs(paperReductionPct[schemeRAIR] - red[schemeRAIR])
	}
}

// reductions is the average per-application APL reduction of each panel
// scheme against the first leg (RO_RR), in percent; nil off the panel.
func reductions(legs []legRecord) map[string]float64 {
	if len(legs) < 2 {
		return nil
	}
	out := map[string]float64{}
	base := legs[0].AppAPL
	for _, lr := range legs[1:] {
		sum := 0.0
		for a := range base {
			sum += stats.Reduction(base[a], lr.AppAPL[a])
		}
		out[lr.Scheme] = 100 * sum / float64(len(base))
	}
	return out
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
