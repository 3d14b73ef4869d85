package msg

// Pool is a packet freelist: generators draw packets from it and the
// network returns them once ejected, so a steady-state simulation reuses a
// bounded working set of Packet structs instead of allocating one per
// injection (and feeding the garbage collector at the same rate).
//
// A Pool is NOT safe for concurrent use. The simulator only touches it from
// the coordinating goroutine: the traffic generator Gets between ticks, and
// the network Puts ejected packets while replaying ejection callbacks after
// all tick barriers. Recycling is only sound when no observer retains the
// packet pointer past its ejection callback — callers that record packets
// or recycle their own (the memory-system model) must not attach a pool.
type Pool struct {
	free []*Packet
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet, reusing a recycled one when available. A nil
// pool allocates every packet, so a source's Pool field may stay unset.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free = p.free[:n-1]
		*pkt = Packet{}
		return pkt
	}
	return &Packet{}
}

// Put recycles an ejected packet for a later Get. The caller must not touch
// the packet afterwards.
func (p *Pool) Put(pkt *Packet) { p.free = append(p.free, pkt) }
