package sim

// Tickable is implemented by every component that advances one cycle at a
// time. Components must interact only through state that is latched across
// cycles (delay lines, next-cycle registers) so that the relative tick order
// of independent components cannot change results.
type Tickable interface {
	Tick(cycle int64)
}

// TickFunc adapts a plain function to the Tickable interface.
type TickFunc func(cycle int64)

// Tick implements Tickable.
func (f TickFunc) Tick(cycle int64) { f(cycle) }

// Engine drives a set of Tickables through simulated cycles. It is a thin,
// deterministic scheduler: components are ticked in registration order every
// cycle.
type Engine struct {
	now   int64
	parts []Tickable
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current cycle (the number of completed cycles).
func (e *Engine) Now() int64 { return e.now }

// Register adds a component; it will be ticked every cycle in registration
// order.
func (e *Engine) Register(t Tickable) { e.parts = append(e.parts, t) }

// Step advances the simulation by one cycle.
func (e *Engine) Step() {
	c := e.now
	for _, t := range e.parts {
		t.Tick(c)
	}
	e.now++
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n int64) {
	for i := int64(0); i < n; i++ {
		e.Step()
	}
}

// RunUntil advances cycles until done returns true or limit cycles elapse.
// It reports whether done was satisfied.
func (e *Engine) RunUntil(done func() bool, limit int64) bool {
	for i := int64(0); i < limit; i++ {
		if done() {
			return true
		}
		e.Step()
	}
	return done()
}
