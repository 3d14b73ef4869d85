// Package trace provides packet-level traffic traces: a compact binary
// format, recording from live runs, and cycle-accurate replay. This is the
// trace-driven methodology of the paper's application experiments: traffic
// is captured once from the full-system memory model (standing in for the
// SIMICS+GEMS captures) and replayed identically under every scheme so that
// latency differences come from the network alone.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"rair/internal/msg"
)

// Event is one packet injection.
type Event struct {
	Cycle int64
	App   int32
	Src   int32
	Dst   int32
	Class msg.Class
	Size  int32
}

// Trace is an ordered sequence of injections (non-decreasing cycles).
type Trace struct {
	Events []Event
}

// Len reports the event count.
func (t *Trace) Len() int { return len(t.Events) }

// Duration reports the cycle of the last event (0 when empty).
func (t *Trace) Duration() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Cycle
}

// Add appends an event; callers should append in cycle order (Sort fixes
// out-of-order appends).
func (t *Trace) Add(e Event) { t.Events = append(t.Events, e) }

// Sort orders events by cycle (stable, preserving same-cycle order).
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].Cycle < t.Events[j].Cycle })
}

// Validate checks cycle monotonicity and field sanity for a mesh of n
// nodes. Errors name the offending event index, field and value so a bad
// capture can be located without a hex dump.
func (t *Trace) Validate(n int) error {
	var prev int64
	for i, e := range t.Events {
		switch {
		case e.Cycle < 0:
			return fmt.Errorf("trace: event %d: cycle is %d, must be non-negative", i, e.Cycle)
		case e.Cycle < prev:
			return fmt.Errorf("trace: event %d: cycle %d regresses below event %d's cycle %d", i, e.Cycle, i-1, prev)
		case e.Src < 0 || int(e.Src) >= n:
			return fmt.Errorf("trace: event %d: src %d outside mesh of %d nodes", i, e.Src, n)
		case e.Dst < 0 || int(e.Dst) >= n:
			return fmt.Errorf("trace: event %d: dst %d outside mesh of %d nodes", i, e.Dst, n)
		case e.Size < 1:
			return fmt.Errorf("trace: event %d: size %d, packets need at least one flit", i, e.Size)
		case e.Class < 0 || e.Class >= msg.NumClasses:
			return fmt.Errorf("trace: event %d: class %d outside [0,%d)", i, e.Class, msg.NumClasses)
		}
		prev = e.Cycle
	}
	return nil
}

// magic identifies the binary trace format.
var magic = [4]byte{'R', 'A', 'I', 'R'}

const formatVersion = 1

// Write encodes the trace: a header followed by varint-delta records.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(formatVersion); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Events))); err != nil {
		return err
	}
	var prev int64
	for _, e := range t.Events {
		if e.Cycle < prev {
			return errors.New("trace: events not cycle-ordered; call Sort first")
		}
		for _, v := range []uint64{
			uint64(e.Cycle - prev),
			uint64(e.App),
			uint64(e.Src),
			uint64(e.Dst),
			uint64(e.Class),
			uint64(e.Size),
		} {
			if err := putUvarint(v); err != nil {
				return err
			}
		}
		prev = e.Cycle
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("trace: not a RAIR trace file")
	}
	next := func() (uint64, error) { return binary.ReadUvarint(br) }
	ver, err := next()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	const maxEvents = 1 << 30
	if count > maxEvents {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	// The header is not trusted with the allocation: events beyond the
	// first few thousand are appended as they are actually read.
	t := &Trace{Events: make([]Event, 0, min(count, 4096))}
	var cycle int64
	for i := uint64(0); i < count; i++ {
		var vals [6]uint64
		for j := range vals {
			v, err := next()
			if err != nil {
				return nil, fmt.Errorf("trace: event %d field %d: %w", i, j, err)
			}
			// Every field but the cycle delta is an int32 on the way in.
			if j > 0 && v > math.MaxInt32 {
				return nil, fmt.Errorf("trace: event %d field %d: value %d out of range", i, j, v)
			}
			vals[j] = v
		}
		if vals[0] > uint64(math.MaxInt64-cycle) {
			return nil, fmt.Errorf("trace: event %d: cycle overflows", i)
		}
		cycle += int64(vals[0])
		t.Events = append(t.Events, Event{
			Cycle: cycle,
			App:   int32(vals[1]),
			Src:   int32(vals[2]),
			Dst:   int32(vals[3]),
			Class: msg.Class(vals[4]),
			Size:  int32(vals[5]),
		})
	}
	return t, nil
}

// Recorder captures injected packets into a trace. Hook Capture into the
// traffic source's injection path.
type Recorder struct {
	T Trace
}

// Capture records one packet injection.
func (r *Recorder) Capture(node int, p *msg.Packet, now int64) {
	r.T.Add(Event{
		Cycle: now,
		App:   int32(p.App),
		Src:   int32(p.Src),
		Dst:   int32(p.Dst),
		Class: p.Class,
		Size:  int32(p.Size),
	})
}

// Player replays a trace into a network, injecting each event at its
// recorded cycle. It implements sim.Tickable; tick it before the network.
type Player struct {
	trace  *Trace
	inject func(node int, p *msg.Packet, now int64)
	next   int // events replayed; the next packet's ID is next+1
	// Pool, when non-nil, supplies packet structs instead of the heap, like
	// traffic.Generator's.
	Pool *msg.Pool
}

// NewPlayer builds a player over a validated trace.
func NewPlayer(t *Trace, inject func(node int, p *msg.Packet, now int64)) *Player {
	return &Player{trace: t, inject: inject}
}

// Injected reports how many events have been replayed.
func (p *Player) Injected() uint64 { return uint64(p.next) }

// Tick implements sim.Tickable.
func (p *Player) Tick(now int64) {
	for ; p.next < len(p.trace.Events) && p.trace.Events[p.next].Cycle <= now; p.next++ {
		e := &p.trace.Events[p.next]
		pkt := p.Pool.Get()
		pkt.ID, pkt.App, pkt.Src, pkt.Dst = uint64(p.next)+1, int(e.App), int(e.Src), int(e.Dst)
		pkt.Class, pkt.Size = e.Class, int(e.Size)
		p.inject(int(e.Src), pkt, now)
	}
}
