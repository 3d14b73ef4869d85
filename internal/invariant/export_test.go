package invariant

import "rair/internal/router"

// Routers returns the audited routers, so the external tests can seed a
// wedge through their debug hooks.
func (c *Checker) Routers() []*router.Router { return c.t.Routers }
