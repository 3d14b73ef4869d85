// Package harness configures and runs the paper's experiments: it builds
// scenarios (region layouts + per-application traffic at fractions of
// saturation), runs each (scheme × scenario) simulation on its own
// goroutine, and collects the per-figure tables reported in EXPERIMENTS.md.
package harness

import (
	"runtime"
	"sync"

	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/telemetry"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// Durations holds the simulation phases in cycles. The paper warms up for
// 10K cycles and measures over 100K; Quick returns a shorter setting for
// tests and smoke runs.
type Durations struct {
	Warmup  int64
	Measure int64
	// Drain bounds the post-measurement drain phase; measured packets
	// still in flight when it expires are simply not counted.
	Drain int64
}

// PaperDurations is the evaluation setting of Section V.A.
func PaperDurations() Durations { return Durations{Warmup: 10000, Measure: 100000, Drain: 20000} }

// QuickDurations is a reduced setting for tests and benchmarks; latency
// averages are noisier but ordering-stable.
func QuickDurations() Durations { return Durations{Warmup: 2000, Measure: 10000, Drain: 10000} }

// RunConfig is one simulation point.
type RunConfig struct {
	Regions *region.Map
	Router  router.Config
	Apps    []traffic.AppTraffic
	Scheme  Scheme
	Dur     Durations
	Seed    uint64
	// Workers selects the network's tick-engine shard count (<= 1 serial).
	// Results are identical either way; see network.Params.Workers.
	Workers int
	// Telemetry, if non-nil, instruments the network's routers and NIs and
	// turns on the tick engine's self-profiling; see network.Params.Telemetry
	// and network.Params.Profile. Read the profile from Sim.Net after the run.
	Telemetry *telemetry.Collector
	// Check, if non-nil, runs the runtime invariant checker at every tick
	// barrier; see network.Params.Check.
	Check *invariant.Config
	// Chiplets, if non-nil, builds the mesh as a two-level chiplet system
	// joined by a crossbar; see network.Params.Chiplets. The grid must span
	// the Regions mesh.
	Chiplets *topology.Chiplets
	// Alg, if non-nil, replaces the scheme's routing algorithm.
	Alg routing.Algorithm
	// Attach, if set, is called once while the simulation is built and adds
	// the run's own traffic sources and ejection observer (a memory system,
	// an adversarial injector, a collective, a trace player, a rank
	// observer). inject is the network's injection entry and pool the run's
	// packet freelist; see Attached for what the hook hands back.
	Attach func(inject Inject, pool *msg.Pool) Attached
}

// Inject is the network's injection entry as sources receive it (an alias,
// so it converts to each source package's own injector type).
type Inject = func(node int, p *msg.Packet, now int64)

// Attached is what a RunConfig.Attach hook contributes to a simulation.
type Attached struct {
	// Sources tick every cycle, in this order, after the Apps generator and
	// before the network — the order decides NI queue order when two
	// sources inject at one node in one cycle. They are ticked through the
	// drain phase too, so an open-loop source must stop itself at the end of
	// the measurement window.
	Sources []sim.Tickable
	// OnEject, if set, sees every delivered packet before the statistics
	// collector and reports whether the collector should count it. It is
	// the run's one ejection rule: each Add* helper wraps the previous rule.
	OnEject func(p *msg.Packet, now int64) bool
	// Retains keeps ejected packets out of the freelist: this source
	// recycles its own packets. The memory system sets it; a packet it
	// reuses at its next Tick must not also sit in the run's pool.
	Retains bool
}

// Sim is one built simulation point: the wired network, the engine that
// ticks the sources and then the network each cycle, and the collector the
// ejections feed. Build returns it before the first cycle; Net stays
// readable after Run until Close.
type Sim struct {
	Net *network.Network
	Eng *sim.Engine
	Col *stats.Collector

	rc RunConfig
}

// Build constructs the simulation for rc without running it.
func Build(rc RunConfig) *Sim {
	end := rc.Dur.Warmup + rc.Dur.Measure
	s := &Sim{rc: rc, Eng: sim.NewEngine(), Col: stats.NewCollector(rc.Dur.Warmup, end)}
	// The collector copies packet fields at ejection, so packets recycle
	// through a freelist unless the attachment opts out (Retains). Sources
	// are built before the network (so the attachment can say whether to
	// recycle) and inject through s.Net, bound below; no injection can
	// occur before the first Tick.
	pool := msg.NewPool()
	inject := func(node int, p *msg.Packet, now int64) { s.Net.Inject(p, now) }
	var att Attached
	if rc.Attach != nil {
		att = rc.Attach(inject, pool)
	}
	if len(rc.Apps) > 0 {
		gen := traffic.NewGenerator(rc.Apps, rc.Seed, inject)
		gen.Pool = pool
		gen.Until = end
		s.Eng.Register(gen)
	}
	for _, src := range att.Sources {
		s.Eng.Register(src)
	}
	onEject := s.Col.OnEject
	if att.OnEject != nil {
		onEject = func(p *msg.Packet, now int64) {
			if att.OnEject(p, now) {
				s.Col.OnEject(p, now)
			}
		}
	}
	alg := rc.Alg
	if alg == nil {
		alg = rc.Scheme.Alg(rc.Regions.Mesh())
	}
	var recycle func(*msg.Packet)
	if !att.Retains {
		recycle = pool.Put
	}
	s.Net = network.New(network.Params{
		Router:    rc.Router,
		Regions:   rc.Regions,
		Alg:       alg,
		Sel:       rc.Scheme.Sel(rc.Regions, rc.Router),
		Policy:    rc.Scheme.Policy,
		OnEject:   onEject,
		Recycle:   recycle,
		Workers:   rc.Workers,
		Telemetry: rc.Telemetry,
		Check:     rc.Check,
		Profile:   rc.Telemetry != nil,
		Chiplets:  rc.Chiplets,
	})
	s.Eng.Register(s.Net)
	return s
}

// Run advances the simulation through the fixed warmup+measure phase and
// the bounded drain, and returns the collector. Every source keeps ticking
// while the network drains; those that generate load stopped themselves at
// the end of the measurement window.
func (s *Sim) Run() *stats.Collector {
	s.Eng.Run(s.rc.Dur.Warmup + s.rc.Dur.Measure)
	s.Eng.RunUntil(s.Net.Drained, s.rc.Dur.Drain)
	return s.Col
}

// Close stops the network's worker goroutines.
func (s *Sim) Close() { s.Net.Close() }

// Run executes one simulation point and returns its statistics collector.
func Run(rc RunConfig) *stats.Collector {
	s := Build(rc)
	defer s.Close()
	return s.Run()
}

// RunParallel executes every configuration concurrently and returns
// collectors in input order. Each simulation is fully deterministic in
// isolation, so results are identical to a serial run.
//
// The concurrency budget is GOMAXPROCS goroutines total: a run configured
// with tick-engine shards (Workers > 1) occupies that many slots, so runs
// with intra-simulation parallelism don't multiply into CPU oversubscription.
// The semaphore is acquired before the goroutine spawns, bounding live
// goroutines (not merely running ones) for arbitrarily long rcs slices; with
// a single slot the points run one at a time.
func RunParallel(rcs []RunConfig) []*stats.Collector {
	out := make([]*stats.Collector, len(rcs))
	maxW := 1
	for _, rc := range rcs {
		if rc.Workers > maxW {
			maxW = rc.Workers
		}
	}
	slots := runtime.GOMAXPROCS(0) / maxW
	if slots < 1 {
		slots = 1
	}
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for i := range rcs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = Run(rcs[i])
		}(i)
	}
	wg.Wait()
	return out
}
