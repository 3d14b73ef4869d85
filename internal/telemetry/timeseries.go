package telemetry

import "rair/internal/msg"

// WindowSample is one closed sampling window at one router: the DPA
// occupancy registers (VC occupancy by region tag) at the window boundary,
// the derived OVC_f/OVC_n ratio, and the flits the router pushed onto its
// output links during the window.
type WindowSample struct {
	// Cycle is the last cycle included in the window.
	Cycle int64 `json:"cycle"`
	// OVCNative / OVCForeign are the router's occupied-VC registers at
	// the boundary (the inputs to DPA, Section IV.C).
	OVCNative  int `json:"ovcNative"`
	OVCForeign int `json:"ovcForeign"`
	// Ratio is OVC_f/OVC_n; -1 encodes the infinite ratio (foreign
	// occupancy with no native occupancy), 0 when both registers are
	// empty.
	Ratio float64 `json:"ratio"`
	// LinkFlits is the number of flits pushed onto the router's output
	// links during the window; Utilization is LinkFlits per cycle (an
	// upper bound of one per connected output link).
	LinkFlits   int64   `json:"linkFlits"`
	Utilization float64 `json:"utilization"`
	// Blame* are the stalled-head cycles this router charged per cause
	// bucket during the window, and InterferenceRatio is BlameForeign over
	// all three (0 when nothing was charged) — the windowed
	// interference-ratio series. All zero (and omitted from JSON) unless
	// attribution is on.
	BlameNative       int64   `json:"blameNative,omitempty"`
	BlameForeign      int64   `json:"blameForeign,omitempty"`
	BlameEscape       int64   `json:"blameEscape,omitempty"`
	InterferenceRatio float64 `json:"interferenceRatio,omitempty"`
}

// winRing is a ring of at most cap window samples. It grows by append as
// windows close, so a short run holds only the windows it closed; once
// full, the oldest window is overwritten.
type winRing struct {
	buf  []WindowSample
	next int
	full bool
}

func (r *winRing) push(cap int, s WindowSample) {
	if len(r.buf) < cap {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % cap
	r.full = true
}

// ordered returns the retained samples in chronological order.
func (r *winRing) ordered() []WindowSample {
	if !r.full {
		return r.buf
	}
	out := make([]WindowSample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Sample closes a window at cycle now: the network calls it for every
// probe when Advance reports a window boundary, passing the router's DPA
// occupancy registers. Link flits are differenced against the previous
// boundary from the probe's own counter.
func (p *Probe) Sample(now int64, ovcNative, ovcForeign int) {
	if p == nil {
		return
	}
	delta := p.c.LinkFlits - p.lastFlits
	p.lastFlits = p.c.LinkFlits
	ratio := 0.0
	switch {
	case ovcNative > 0:
		ratio = float64(ovcForeign) / float64(ovcNative)
	case ovcForeign > 0:
		ratio = -1 // infinite: foreign occupancy against empty native
	}
	s := WindowSample{
		Cycle:       now,
		OVCNative:   ovcNative,
		OVCForeign:  ovcForeign,
		Ratio:       ratio,
		LinkFlits:   delta,
		Utilization: float64(delta) / float64(p.col.cfg.Window),
	}
	if p.col.cfg.Attribution {
		attr := [msg.NumBlame]int64{
			msg.BlameNative:  p.c.AttrNativeCycles,
			msg.BlameForeign: p.c.AttrForeignCycles,
			msg.BlameEscape:  p.c.AttrEscapeCycles,
		}
		s.BlameNative = attr[msg.BlameNative] - p.lastAttr[msg.BlameNative]
		s.BlameForeign = attr[msg.BlameForeign] - p.lastAttr[msg.BlameForeign]
		s.BlameEscape = attr[msg.BlameEscape] - p.lastAttr[msg.BlameEscape]
		p.lastAttr = attr
		if total := s.BlameNative + s.BlameForeign + s.BlameEscape; total > 0 {
			s.InterferenceRatio = float64(s.BlameForeign) / float64(total)
		}
	}
	p.win.push(p.col.cfg.WindowCap, s)
}

// Windows returns the probe's retained window samples in chronological
// order.
func (p *Probe) Windows() []WindowSample {
	if p == nil {
		return nil
	}
	return p.win.ordered()
}
