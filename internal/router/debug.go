package router

import (
	"fmt"
	"strings"

	"rair/internal/topology"
)

// DebugDropCredit steals one downstream credit from output port d's VC vc,
// as if the credit had been lost on its wire.
// It exists only so tests can seed a genuine accounting bug and assert the
// invariant checker reports it; nothing in the simulator calls it. The
// shadow masks are kept consistent with the counter — the seeded bug is a
// conservation violation, not a datapath desync: a VC left without credit
// also leaves its stream's SA candidate set, so stealing a VC's whole stock
// wedges the stream instead of tripping the SA credit guard.
func (r *Router) DebugDropCredit(d topology.Dir, vc int) {
	p := &r.out[d]
	v := &p.vcs[vc]
	if v.credits == 0 {
		panic("router: DebugDropCredit on empty credit counter")
	}
	v.credits--
	p.creditSum--
	p.fullMask &^= 1 << uint(vc)
	if v.credits == 0 {
		p.creditMask &^= 1 << uint(vc)
		if p.streamMask>>uint(vc)&1 == 1 {
			in := &r.in[v.inPort]
			in.saElig &^= 1 << uint(v.inVC)
			if in.saElig == 0 {
				r.saPorts &^= 1 << uint(v.inPort)
			}
		}
	}
}

// DebugState renders the router's pipeline state for diagnostics (watchdog
// reports, deadlock triage).
func (r *Router) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router %d (app %d)\n", r.node, r.app)
	stages := [...]string{"Idle", "RC", "VA", "Active"}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		for i := range r.in[d].vcs {
			vc := &r.in[d].vcs[i]
			if vc.owner == nil && vc.n == 0 {
				continue
			}
			fmt.Fprintf(&b, "  in %-5s vc%-2d %-6s buf=%d front=%d escapeNext=%v", d, vc.idx, stages[vc.stage], vc.n, vc.front, vc.vaOdd)
			if vc.owner != nil {
				fmt.Fprintf(&b, " owner=%v", vc.owner)
				if vc.stage == stageActive {
					fmt.Fprintf(&b, " -> %s vc%d", topology.Dir(vc.outPort), vc.outVC)
				}
			}
			b.WriteByte('\n')
		}
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		out := &r.out[d]
		for i := range out.vcs {
			ov := &out.vcs[i]
			if ov.owner == nil {
				continue
			}
			fmt.Fprintf(&b, "  out %-5s vc%-2d credits=%d tailSent=%v owner=%v\n", d, i, ov.credits, ov.tailSent, ov.owner)
		}
		if r.stBusy>>uint(d)&1 == 1 {
			fmt.Fprintf(&b, "  out %-5s ST=%v flit %v seq=%d\n", d, out.st.pkt, out.st.typ, out.st.seq)
		}
	}
	return b.String()
}
