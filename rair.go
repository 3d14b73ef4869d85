// Package rair is a cycle-accurate simulator for region-aware interference
// reduction in regionalized networks-on-chip (RNoCs), reproducing the
// system of Chen, Hwang and Pinkston, "RAIR: Interference Reduction in
// Regionalized Networks-on-Chip" (IPDPS 2013).
//
// The library models a mesh of canonical five-stage virtual-channel
// wormhole routers (RC, VA, SA, ST, LT) with credit-based flow control,
// Duato-style adaptive routing, and pluggable interference-reduction
// policies:
//
//   - RO_RR: region-oblivious round-robin (baseline)
//   - RO_Rank: idealized STC (oracle application ranking + batching)
//   - RA_DBAR: region-clipped congestion-aware adaptive routing
//   - RA_RAIR: the paper's technique — VC regionalization, multi-stage
//     prioritization and dynamic priority adaptation — plus its ablations
//
// Traffic comes from synthetic generators (uniform random, transpose, bit
// complement, hotspot, composed per application into regionalized mixes),
// from a Table 1 memory-system model driven by PARSEC-proxy workloads, or
// from recorded packet traces.
//
// Basic use:
//
//	sim, err := rair.New(rair.Config{Layout: rair.LayoutHalves, Scheme: "RA_RAIR"})
//	...
//	sim.AddApp(rair.AppSpec{App: 0, LoadFrac: 0.1, GlobalFrac: 0.2})
//	sim.AddApp(rair.AppSpec{App: 1, LoadFrac: 0.9})
//	report, err := sim.Run(rair.Phases{Warmup: 10000, Measure: 100000, Drain: 20000})
//	...
//	fmt.Println(report)
//
// The paper's full evaluation is available through ExperimentCSV and the
// rairbench command. Each experiment's registry row also states its shape
// guards and the paper's claims (Guards), which rairsweep check applies to a
// result store and renders as a scorecard.
package rair

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"rair/internal/harness"
	"rair/internal/invariant"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/telemetry"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// Layout selects a predefined region layout.
type Layout string

// Predefined layouts on the configured mesh.
const (
	// LayoutSingle is one region covering the whole chip (a conventional
	// NoC).
	LayoutSingle Layout = "single"
	// LayoutHalves is two applications on left/right halves.
	LayoutHalves Layout = "halves"
	// LayoutQuadrants is four applications on quadrants.
	LayoutQuadrants Layout = "quadrants"
	// LayoutSixGrid is six applications on a 3×2 grid of regions.
	LayoutSixGrid Layout = "sixgrid"
	// LayoutCustom uses Config.Rects.
	LayoutCustom Layout = "custom"
)

// Rect is a half-open node rectangle for LayoutCustom: x in [X0,X1), y in
// [Y0,Y1).
type Rect = region.Rect

// Config describes a simulation. A simulation file's "config" block decodes
// into it and the run record carries it resolved; the JSON keys are the
// ones below (a file may spell them in any case).
type Config struct {
	// MeshW, MeshH are the mesh dimensions (default 8×8).
	MeshW int `json:"meshW"`
	MeshH int `json:"meshH"`
	// Layout picks the region layout (default LayoutSingle); Rects is
	// used with LayoutCustom, assigning app i to Rects[i].
	Layout Layout `json:"layout"`
	Rects  []Rect `json:"rects,omitempty"`

	// Scheme names the interference-reduction technique: "RO_RR",
	// "RO_Rank", "RA_DBAR", "RA_RAIR", "RAIR_DBAR", "RAIR_VA",
	// "RAIR_NativeH", "RAIR_ForeignH" (default "RO_RR"; Schemes lists
	// them).
	Scheme string `json:"scheme"`
	// Routing selects the routing algorithm: "adaptive" (minimal
	// adaptive with Duato escape VCs, the default), "xy", "westfirst",
	// or "lbdr" — the restricted baseline that confines every packet to
	// its region and requires each region to contain a corner memory
	// controller (Section III.B). Under "lbdr" only intra-region traffic
	// can be expressed.
	Routing string `json:"routing"`
	// Ranks is RO_Rank's oracle ranking (rank per app id, 0 = highest
	// priority), each rank in [0, len(Ranks)). Defaults to app order; any
	// other scheme rejects it.
	Ranks []int `json:"ranks,omitempty"`
	// Delta overrides RA_RAIR's DPA hysteresis width (default 0.2); it
	// must be finite and non-negative, and any other scheme rejects it.
	Delta float64 `json:"delta"`

	// Router microarchitecture overrides; zero values take the Table 1
	// defaults (4 adaptive VCs of which 2 global + 1 escape VC per
	// class, 5-flit buffers) and negative values are rejected.
	Classes     int `json:"classes"`
	AdaptiveVCs int `json:"adaptiveVCs"`
	GlobalVCs   int `json:"globalVCs"`
	EscapeVCs   int `json:"escapeVCs"`
	Depth       int `json:"depth"`
	LinkLatency int `json:"linkLatency"`

	// Seed fixes all randomness (default 1).
	Seed uint64 `json:"seed"`

	// Workers shards the network tick engine across this many goroutines
	// (<= 1 runs serially). Results are bit-identical either way; see
	// network.Params.Workers.
	Workers int `json:"workers"`

	// Telemetry turns on every observation section of the run record:
	// per-router counters (MSP grants and denials split native/foreign, DPA
	// transitions, stalls), their windowed series at
	// telemetry.DefaultWindow cycles, the interference blame accountant and
	// the tick engine's self-profile. Observer-only: simulation results are
	// bit-identical with it on or off, at any worker count; the cost is a
	// slowdown and the collector's memory.
	Telemetry bool `json:"telemetry"`
	// TelemetryTraceEvery samples every N-th packet for flit-lifecycle
	// tracing (0 disables tracing; Report.WriteChromeTrace exports it).
	// Implies Telemetry.
	TelemetryTraceEvery uint64 `json:"telemetryTraceEvery"`

	// CheckInvariants runs the runtime invariant checker at every tick
	// barrier (flit conservation, per-link credit accounting, atomic VC
	// allocation, hop progress, deadlock watchdog). Violations surface as
	// an error from Run. Simulation results are bit-identical with the
	// checker on or off.
	CheckInvariants bool `json:"checkInvariants"`
}

// AppSpec describes one synthetic application's traffic.
type AppSpec struct {
	// App is the application id; by default it injects from its own
	// region's nodes.
	App int
	// LoadFrac is the injection rate as a fraction of this traffic mix's
	// achieved saturation load. Exactly one of LoadFrac or PacketRate
	// must be set.
	LoadFrac float64
	// PacketRate sets the absolute rate in packets per node per cycle.
	PacketRate float64
	// GlobalFrac is the fraction of traffic crossing regions (default 0)
	// and GlobalPattern its pattern: "UR" (default), "TP", "BC", "HS".
	GlobalFrac    float64
	GlobalPattern string
	// MCFrac is the fraction of traffic to/from the corner memory
	// controllers (default 0). The remainder (1-GlobalFrac-MCFrac) is
	// intra-region uniform random, which a one-node region cannot carry.
	MCFrac float64
}

// Phases are the simulation phases in cycles: Warmup, Measure and the bound
// on the post-measurement Drain.
type Phases = harness.Durations

// PaperPhases returns the evaluation setting of the paper (10K warmup,
// 100K measure).
func PaperPhases() Phases { return harness.PaperDurations() }

// QuickPhases returns a fast setting for smoke runs.
func QuickPhases() Phases { return harness.QuickDurations() }

// Simulation is a configured chip ready to run.
type Simulation struct {
	cfg     Config
	regions *region.Map
	rcfg    router.Config
	scheme  harness.Scheme
	alg     routing.Algorithm // overrides the scheme's default when set

	apps      []traffic.AppTraffic
	parsec    bool
	adversary float64
}

// New validates the configuration and builds a simulation.
func New(cfg Config) (*Simulation, error) {
	if cfg.MeshW == 0 {
		cfg.MeshW = 8
	}
	if cfg.MeshH == 0 {
		cfg.MeshH = 8
	}
	if cfg.MeshW < 2 || cfg.MeshH < 2 {
		return nil, fmt.Errorf("rair: mesh %dx%d too small", cfg.MeshW, cfg.MeshH)
	}
	if err := topology.CheckMesh(cfg.MeshW, cfg.MeshH); err != nil {
		return nil, fmt.Errorf("rair: %w", err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Layout == "" {
		cfg.Layout = LayoutSingle
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "RO_RR"
	}
	if cfg.Routing == "" {
		cfg.Routing = "adaptive"
	}
	if !(cfg.Delta >= 0) || math.IsInf(cfg.Delta, 1) {
		return nil, fmt.Errorf("rair: DPA hysteresis width %v must be finite and non-negative", cfg.Delta)
	}
	// A setting the chosen scheme never reads would be silently ignored.
	if cfg.Delta != 0 && cfg.Scheme != "RA_RAIR" {
		return nil, fmt.Errorf("rair: delta applies only to RA_RAIR, not to scheme %q", cfg.Scheme)
	}
	if len(cfg.Ranks) > 0 && cfg.Scheme != "RO_Rank" {
		return nil, fmt.Errorf("rair: ranks apply only to RO_Rank, not to scheme %q", cfg.Scheme)
	}
	// A rank outside [0, n) would let a younger batch outrank an older one.
	if cfg.Ranks != nil && len(cfg.Ranks) == 0 {
		return nil, fmt.Errorf("rair: ranks, when given, must rank at least one app")
	}
	for app, r := range cfg.Ranks {
		if r < 0 || r >= len(cfg.Ranks) {
			return nil, fmt.Errorf("rair: ranks: app %d has rank %d, outside [0, %d)", app, r, len(cfg.Ranks))
		}
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"classes", cfg.Classes}, {"adaptiveVCs", cfg.AdaptiveVCs}, {"globalVCs", cfg.GlobalVCs},
		{"escapeVCs", cfg.EscapeVCs}, {"depth", cfg.Depth}, {"linkLatency", cfg.LinkLatency}} {
		if f.v < 0 {
			return nil, fmt.Errorf("rair: %s %d is negative (0 takes the Table 1 default)", f.name, f.v)
		}
	}
	cfg.Telemetry = cfg.Telemetry || cfg.TelemetryTraceEvery > 0
	mesh := topology.NewMesh(cfg.MeshW, cfg.MeshH)
	var regs *region.Map
	var err error
	switch cfg.Layout {
	case LayoutSingle:
		regs = region.Single(mesh)
	case LayoutHalves:
		regs = region.Halves(mesh)
	case LayoutQuadrants:
		regs = region.Quadrants(mesh)
	case LayoutSixGrid:
		regs, err = region.FromRects(mesh, region.SixGridRects(mesh))
	case LayoutCustom:
		if regs, err = region.FromRects(mesh, cfg.Rects); err == nil {
			err = regs.Validate()
		}
	default:
		return nil, fmt.Errorf("rair: unknown layout %q", cfg.Layout)
	}
	if err != nil {
		return nil, fmt.Errorf("rair: layout %q: %w", cfg.Layout, err)
	}

	rcfg, err := routerConfig(cfg, max(cfg.Classes, 1))
	if err != nil {
		return nil, err
	}

	scheme, err := schemeFor(cfg, regs.NumApps())
	if err != nil {
		return nil, err
	}
	s := &Simulation{cfg: cfg, regions: regs, rcfg: rcfg, scheme: scheme}
	switch cfg.Routing {
	case "adaptive":
	case "xy":
		s.alg = routing.XY{Mesh: mesh}
	case "westfirst":
		s.alg = routing.WestFirst{Mesh: mesh}
	case "lbdr":
		corners := mesh.Corners()
		lbdr, err := routing.NewLBDR(regs, corners[:])
		if err != nil {
			return nil, err
		}
		s.alg = lbdr
	default:
		return nil, fmt.Errorf("rair: unknown routing %q", cfg.Routing)
	}
	return s, nil
}

// routerConfig is the Table 1 router for the given number of message
// classes with cfg's microarchitecture overrides applied, validated.
func routerConfig(cfg Config, classes int) (router.Config, error) {
	rcfg := router.DefaultConfig(classes)
	if cfg.AdaptiveVCs > 0 {
		rcfg.AdaptiveVCs = cfg.AdaptiveVCs
		rcfg.GlobalVCs = cfg.AdaptiveVCs / 2
	}
	if cfg.GlobalVCs > 0 {
		rcfg.GlobalVCs = cfg.GlobalVCs
	}
	if cfg.EscapeVCs > 0 {
		rcfg.EscapeVCs = cfg.EscapeVCs
	}
	if cfg.Depth > 0 {
		rcfg.Depth = cfg.Depth
	}
	if cfg.LinkLatency > 0 {
		rcfg.LinkLatency = cfg.LinkLatency
	}
	return rcfg, rcfg.Validate()
}

// lbdrRestricted reports whether the simulation runs under LBDR's
// intra-region-only restriction.
func (s *Simulation) lbdrRestricted() bool {
	_, ok := s.alg.(routing.LBDR)
	return ok
}

// schemeFor looks cfg.Scheme up in the scheme table and applies the two
// settings a Config carries for a scheme: RO_Rank's oracle ranking and
// RA_RAIR's DPA hysteresis width.
func schemeFor(cfg Config, numApps int) (harness.Scheme, error) {
	s, err := harness.SchemeByName(cfg.Scheme)
	if err != nil {
		return s, fmt.Errorf("rair: unknown scheme %q (want one of %s)", cfg.Scheme, strings.Join(Schemes(), ", "))
	}
	if cfg.Scheme == "RO_Rank" {
		ranks := slices.Clone(cfg.Ranks)
		if ranks == nil {
			// Default identity ranking sized to the configured app count so
			// big layouts (16-region grids, chiplet packages) don't silently
			// truncate RO_Rank's oracle at eight apps; keep the historical
			// floor of eight so small configs are byte-identical.
			ranks = make([]int, max(numApps, 8))
			for i := range ranks {
				ranks[i] = i
			}
		}
		s.Policy.Ranks = ranks
	}
	if cfg.Delta > 0 {
		s.Policy.Delta = cfg.Delta
	}
	return s, nil
}

// Schemes lists the recognized scheme names.
func Schemes() []string { return harness.SchemeNames() }

// AddApp attaches a synthetic application. The app id must have nodes in
// the layout.
func (s *Simulation) AddApp(spec AppSpec) error {
	if s.parsec {
		return fmt.Errorf("rair: cannot mix AddApp with AttachPARSEC")
	}
	nodes := s.regions.Nodes(spec.App)
	if len(nodes) == 0 {
		return fmt.Errorf("rair: app %d owns no nodes in layout %q", spec.App, s.cfg.Layout)
	}
	for _, v := range [...]float64{spec.LoadFrac, spec.PacketRate, spec.GlobalFrac, spec.MCFrac} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rair: app %d: non-finite traffic parameter %v", spec.App, v)
		}
	}
	if spec.GlobalFrac < 0 || spec.MCFrac < 0 || spec.GlobalFrac+spec.MCFrac > 1 {
		return fmt.Errorf("rair: app %d traffic fractions out of range", spec.App)
	}
	intra := 1 - spec.GlobalFrac - spec.MCFrac
	if intra > 0 && len(nodes) < 2 {
		return fmt.Errorf("rair: app %d's region has one node, so its intra-region share %v has no destination (GlobalFrac+MCFrac must be 1)", spec.App, intra)
	}
	if s.lbdrRestricted() && (spec.GlobalFrac > 0 || spec.MCFrac > 0) {
		return fmt.Errorf("rair: LBDR routing cannot express app %d's inter-region traffic (GlobalFrac/MCFrac must be 0)", spec.App)
	}
	if spec.LoadFrac < 0 || spec.PacketRate < 0 {
		return fmt.Errorf("rair: app %d: LoadFrac and PacketRate must not be negative", spec.App)
	}
	if (spec.LoadFrac <= 0) == (spec.PacketRate <= 0) {
		return fmt.Errorf("rair: app %d must set exactly one of LoadFrac or PacketRate", spec.App)
	}
	if pat := cmp.Or(spec.GlobalPattern, "UR"); !slices.Contains(traffic.PatternNames, pat) {
		return fmt.Errorf("rair: app %d: unknown global pattern %q (have %v)", spec.App, pat, traffic.PatternNames)
	}
	if spec.GlobalFrac > 0 && len(nodes) == s.regions.Mesh().N() {
		return fmt.Errorf("rair: app %d's region covers the mesh, so its global share %v has no destination (GlobalFrac must be 0)", spec.App, spec.GlobalFrac)
	}
	app := harness.App{Load: spec.LoadFrac, Rate: spec.PacketRate, Global: spec.GlobalFrac, Pattern: spec.GlobalPattern, MC: spec.MCFrac}
	s.apps = append(s.apps, app.Traffic(s.regions, spec.App))
	return nil
}

// AttachPARSEC replaces synthetic applications with the PARSEC-proxy
// workloads over the Table 1 memory system: application i of the layout
// runs workload.Profiles()[i mod 4]. The router gets at least the memory
// system's two message classes; every other router override is kept.
func (s *Simulation) AttachPARSEC() error {
	if len(s.apps) > 0 {
		return fmt.Errorf("rair: cannot mix AttachPARSEC with AddApp")
	}
	if s.cfg.Classes != 0 && s.cfg.Classes < int(msg.NumClasses) {
		return fmt.Errorf("rair: PARSEC workloads need %d message classes", msg.NumClasses)
	}
	if s.lbdrRestricted() {
		return fmt.Errorf("rair: LBDR routing cannot express the memory system's inter-region traffic")
	}
	rcfg, err := routerConfig(s.cfg, max(s.cfg.Classes, int(msg.NumClasses)))
	if err != nil {
		return err
	}
	s.rcfg, s.parsec = rcfg, true
	return nil
}

// AddAdversary injects chip-wide uniform-random traffic at the given rate
// in flits per node per cycle under an application id owned by no region.
func (s *Simulation) AddAdversary(flitRate float64) error {
	if flitRate <= 0 {
		return fmt.Errorf("rair: adversary rate must be positive")
	}
	if s.lbdrRestricted() {
		return fmt.Errorf("rair: LBDR routing cannot express chip-wide adversarial traffic")
	}
	s.adversary = flitRate
	return nil
}

// Run executes the simulation and collects statistics over the measurement
// window. It is deterministic for a fixed Config.Seed.
func (s *Simulation) Run(ph Phases) (*Report, error) {
	if ph.Warmup < 0 || ph.Measure <= 0 {
		return nil, fmt.Errorf("rair: need a positive measurement window")
	}
	if !s.parsec && len(s.apps) == 0 {
		return nil, fmt.Errorf("rair: no traffic attached (AddApp, AttachPARSEC)")
	}
	mesh := s.regions.Mesh()
	var tel *telemetry.Collector
	if s.cfg.Telemetry {
		tel = telemetry.NewCollector(telemetry.Config{TraceEvery: s.cfg.TelemetryTraceEvery, Attribution: true})
	}
	var icfg *invariant.Config
	if s.cfg.CheckInvariants {
		icfg = &invariant.Config{Mode: invariant.ModeCollect}
	}
	end := ph.Warmup + ph.Measure
	adversaryApp := s.regions.NumApps() + 64 // foreign everywhere
	b := harness.Build(harness.RunConfig{
		Regions:   s.regions,
		Router:    s.rcfg,
		Apps:      s.apps,
		Scheme:    s.scheme,
		Alg:       s.alg,
		Dur:       ph,
		Seed:      s.cfg.Seed,
		Workers:   s.cfg.Workers,
		Telemetry: tel,
		Check:     icfg,
		// The memory system ticks first and keeps ticking through the drain
		// so in-flight protocol actions complete; the adversary ticks after
		// whichever of it and the synthetic generator drives the run.
		Attach: func(inject harness.Inject, pool *msg.Pool) harness.Attached {
			var att harness.Attached
			if s.parsec {
				att = harness.MemsysAttach(memsys.DefaultSystemConfig(), s.regions, -1, s.cfg.Seed, inject)
			}
			if s.adversary > 0 {
				att.AddAdversary(mesh, adversaryApp, s.adversary, s.cfg.Seed, end, inject, pool)
			}
			return att
		},
	})
	defer b.Close()
	// The record's configuration is the one the run used: the router as
	// resolved from the overrides.
	cfg := s.cfg
	r := s.rcfg
	cfg.Classes, cfg.AdaptiveVCs, cfg.GlobalVCs, cfg.EscapeVCs, cfg.Depth, cfg.LinkLatency =
		r.Classes, r.AdaptiveVCs, r.GlobalVCs, r.EscapeVCs, r.Depth, r.LinkLatency
	b.Run()

	col := b.Col
	rep := &Report{Schema: ReportSchema, Config: cfg, Workers: b.Net.Workers(), Cycle: b.Eng.Now(),
		Engine: b.Net.EngineProfile(), tel: tel}
	rep.Results = &Results{
		APL:         col.APL(),
		PerApp:      map[int]float64{},
		RegionalAPL: col.Regional().Mean(),
		GlobalAPL:   col.Global().Mean(),
		Packets:     col.Packets(),
		Throughput:  col.FlitThroughput(mesh.N()),
		P95:         col.Total().Percentile(95),
		P99:         col.Total().Percentile(99),
		AvgHops:     col.Hops().Mean(),
	}
	for _, app := range col.Apps() {
		rep.PerApp[app] = col.App(app).Mean()
	}
	if tel != nil {
		rep.Telemetry, rep.Attribution = tel.Report(), tel.Attribution()
	}
	if chk := b.Net.Checker(); chk != nil {
		if err := chk.Err(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
