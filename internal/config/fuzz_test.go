package config

import (
	"os"
	"testing"
)

// FuzzParseConfig feeds arbitrary bytes to the simulation-file parser and
// builds whatever parses, unless the document asks for a network too large
// for a fuzz execution: a malformed or contradictory file is an error from
// Parse or Build, never a panic.
func FuzzParseConfig(f *testing.F) {
	probe, err := os.ReadFile("../../testdata/sim/probe.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(probe)
	f.Add([]byte(parsecAdversary))
	f.Add([]byte(sample))
	f.Add([]byte(`{"config":{"meshW":4,"meshH":4,"layout":"custom","rects":[{"X0":0,"Y0":0,"X1":2,"Y1":4},{"X0":2,"Y0":0,"X1":4,"Y1":4}],"routing":"lbdr","classes":2,"adaptiveVCs":2,"depth":3,"linkLatency":2,"workers":2},"apps":[{"app":1,"packetRate":0.01,"globalPattern":"TP"}],"phases":{"measure":1}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		file, err := Parse(raw)
		if err != nil {
			return
		}
		c := file.Config
		small := c.Workers <= 4 && len(file.Apps) <= 16
		for _, v := range []int{c.MeshW, c.MeshH, c.Classes, c.AdaptiveVCs, c.GlobalVCs, c.EscapeVCs} {
			small = small && v <= 16
		}
		// A depth or link latency past the router's cap of 256 must fail in
		// validation before anything is allocated, so those files are built.
		for _, v := range []int{c.Depth, c.LinkLatency} {
			small = small && (v <= 16 || v > 256)
		}
		if !small {
			return
		}
		if sim, err := file.Build(); (sim == nil) == (err == nil) {
			t.Fatalf("Build returned (%v, %v)", sim, err)
		}
	})
}
