package harness

import (
	"testing"

	"rair/internal/invariant"
	"rair/internal/routing"
)

// TestSchemeCongestionGating: schemes on DBAR selection must keep the
// network's congestion propagation enabled, while local-selection schemes
// let the network skip it entirely.
func TestSchemeCongestionGating(t *testing.T) {
	regs := Fig9Scenario(0.5).Regions
	for _, s := range []Scheme{RORRDBAR("RA_DBAR"), SchemeAs("RAIR_DBAR", "")} {
		if !routing.ConsumesCongestion(s.Sel(regs, synthCfg())) {
			t.Errorf("%s uses DBAR selection but would not propagate congestion", s.Name)
		}
	}
	for _, s := range []Scheme{RORR(), RAIR("RA_RAIR")} {
		if routing.ConsumesCongestion(s.Sel(regs, synthCfg())) {
			t.Errorf("%s uses local selection but still pays for congestion propagation", s.Name)
		}
	}
}

// TestShardedRunDeterminism: for the same seed, a simulation advanced by the
// sharded tick engine must produce statistics identical to the serial engine
// — across scheme families (round-robin baseline, RAIR core, DBAR selection)
// and region layouts. Identity is checked on the full collector surface:
// packet count, average latency, per-app means and tail percentiles.
func TestShardedRunDeterminism(t *testing.T) {
	scenarios := []struct {
		name string
		pt   Point
	}{{"fig9", Fig9Scenario(0.5)}, {"fig14", Fig14Scenario("UR")}}
	schemes := []Scheme{RORR(), RAIR("RA_RAIR"), SchemeAs("RAIR_DBAR", "")}
	for _, sc := range scenarios {
		for _, scheme := range schemes {
			t.Run(sc.name+"/"+scheme.Name, func(t *testing.T) {
				// The panic-mode checker audits the datapath's bitmasks
				// against a slow reference scan at every barrier, so a
				// mask desync in any scheme/engine combination fails
				// loudly rather than silently skewing results.
				rc := sc.pt.RunConfig
				rc.Router, rc.Scheme, rc.Dur, rc.Seed = synthCfg(), scheme, testDur(), 7
				rc.Check = &invariant.Config{Every: 64}
				serial := Run(rc)
				rc.Workers = 4
				sharded := Run(rc)
				if serial.Packets() == 0 {
					t.Fatal("serial run delivered nothing")
				}
				if serial.Packets() != sharded.Packets() {
					t.Fatalf("packets: serial %d, sharded %d", serial.Packets(), sharded.Packets())
				}
				if serial.APL() != sharded.APL() {
					t.Fatalf("APL: serial %v, sharded %v", serial.APL(), sharded.APL())
				}
				if serial.Network().Mean() != sharded.Network().Mean() {
					t.Fatalf("network latency: serial %v, sharded %v",
						serial.Network().Mean(), sharded.Network().Mean())
				}
				if serial.Total().Percentile(99) != sharded.Total().Percentile(99) {
					t.Fatalf("p99: serial %v, sharded %v",
						serial.Total().Percentile(99), sharded.Total().Percentile(99))
				}
				for _, app := range serial.Apps() {
					if serial.App(app).Mean() != sharded.App(app).Mean() {
						t.Fatalf("app %d mean: serial %v, sharded %v",
							app, serial.App(app).Mean(), sharded.App(app).Mean())
					}
				}
			})
		}
	}
}
