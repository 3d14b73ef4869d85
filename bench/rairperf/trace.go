package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"rair/internal/network"
)

// The traced run records a span around each call rairperf makes into a
// layer. A simulated cycle is far too short to keep one span each, so spans
// are summed per block of blockCycles cycles: name, parent, block start,
// busy time and calls. They stay in memory until the run ends.
const blockCycles = 1024

type spanID int

const (
	spanTrafficTick spanID = iota
	spanMemsysTick
	spanNetworkTick
	spanStatsEject
	spanMemsysEject
	numSpans
)

// Span names are the module's entry point; the eject callbacks run inside
// network.Tick's ejection replay, so they are its children.
var spanNames = [numSpans]string{
	"traffic.Generator.Tick", "memsys.System.Tick", "network.Network.Tick",
	"stats.Collector.OnEject", "memsys.System.HandleEject",
}

var spanParents = [numSpans]string{"", "", "", "network.Network.Tick", "network.Network.Tick"}

type spanBlock struct {
	Start  int64 `json:"start_cycle"`
	BusyNS int64 `json:"busy_ns"`
	Calls  int64 `json:"calls"`
}

type spanTotal struct {
	BusyNS int64 `json:"busy_ns"`
	Calls  int64 `json:"calls"`
}

// tracer holds one leg's spans. It is on for the timed window only.
type tracer struct {
	on     bool
	origin int64
	blocks [numSpans][]spanBlock
}

func (t *tracer) start(cycle int64) { t.on, t.origin = true, cycle }

func (t *tracer) add(s spanID, now int64, d time.Duration) {
	i := int((now - t.origin) / blockCycles)
	for len(t.blocks[s]) <= i {
		t.blocks[s] = append(t.blocks[s], spanBlock{Start: t.origin + int64(len(t.blocks[s]))*blockCycles})
	}
	b := &t.blocks[s][i]
	b.BusyNS += int64(d)
	b.Calls++
}

func (t *tracer) totals() map[string]spanTotal {
	out := map[string]spanTotal{}
	for s := range t.blocks {
		var tot spanTotal
		for _, b := range t.blocks[s] {
			tot.BusyNS += b.BusyNS
			tot.Calls += b.Calls
		}
		if tot.Calls > 0 {
			out[spanNames[s]] = tot
		}
	}
	return out
}

// engineDelta is what the engine's self-profile counted over the timed
// window: the profile at its end minus the profile at its start.
type engineDelta struct {
	Cycles        int64        `json:"cycles"`
	Shards        []shardDelta `json:"shards"`
	BarrierWaitNS int64        `json:"barrier_wait_ns"`
}

type shardDelta struct {
	Nodes          int              `json:"nodes"`
	PhaseNS        map[string]int64 `json:"phase_ns"`
	RouterTicks    int64            `json:"router_ticks"`
	NITicks        int64            `json:"ni_ticks"`
	FastPathTicks  int64            `json:"fast_path_ticks"`
	DirtyFlitWires int64            `json:"dirty_flit_wires"`
	DirtyCredWires int64            `json:"dirty_cred_wires"`
}

func diffProfile(a, b *network.EngineProfile) *engineDelta {
	d := &engineDelta{Cycles: b.Cycles - a.Cycles}
	for i, sb := range b.Shards {
		sa := a.Shards[i]
		sd := shardDelta{
			Nodes:          sb.Nodes,
			PhaseNS:        map[string]int64{},
			RouterTicks:    sb.RouterTicks - sa.RouterTicks,
			NITicks:        sb.NITicks - sa.NITicks,
			FastPathTicks:  sb.FastPathTicks - sa.FastPathTicks,
			DirtyFlitWires: sb.DirtyFlitWires - sa.DirtyFlitWires,
			DirtyCredWires: sb.DirtyCredWires - sa.DirtyCredWires,
		}
		for ph, name := range network.PhaseNames {
			sd.PhaseNS[name] = sb.PhaseNS[ph] - sa.PhaseNS[ph]
		}
		d.Shards = append(d.Shards, sd)
	}
	for i, bb := range b.Barrier {
		d.BarrierWaitNS += bb.WaitNS - a.Barrier[i].WaitNS
	}
	return d
}

// phase sums a phase's time over the shards and gives the slowest shard's:
// the phases are barrier-separated, so the slowest one is what the tick
// waits for.
func (d *engineDelta) phase(names ...string) (sum, slowest int64) {
	for _, sh := range d.Shards {
		var ns int64
		for _, n := range names {
			ns += sh.PhaseNS[n]
		}
		sum += ns
		if ns > slowest {
			slowest = ns
		}
	}
	return sum, slowest
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload    string     `json:"workload"`
	Seed        uint64     `json:"seed"`
	BlockCycles int        `json:"block_cycles"`
	Legs        []traceLeg `json:"legs"`
}

type traceLeg struct {
	Scheme string       `json:"scheme"`
	Engine *engineDelta `json:"engine"`
	Spans  []traceSpan  `json:"spans"`
}

type traceSpan struct {
	Name   string      `json:"name"`
	Parent string      `json:"parent,omitempty"`
	Blocks []spanBlock `json:"blocks"`
}

func writeTrace(rec *runRecord, dir string) error {
	tf := traceFile{Workload: rec.Workload, Seed: rec.Seed, BlockCycles: blockCycles}
	for _, lr := range rec.Legs {
		tl := traceLeg{Scheme: lr.Scheme, Engine: lr.Engine}
		for s, blocks := range lr.trace.blocks {
			if len(blocks) > 0 {
				tl.Spans = append(tl.Spans, traceSpan{Name: spanNames[s], Parent: spanParents[s], Blocks: blocks})
			}
		}
		tf.Legs = append(tf.Legs, tl)
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+rec.Workload+".json"), append(buf, '\n'), 0o644)
}
