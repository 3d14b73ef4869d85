// Package config defines the JSON experiment-file schema consumed by the
// rairsim command: a simulation configuration, traffic description and run
// phases in one document.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rair"
)

// File is one simulation description. The keys under config, apps and phases
// are the field names of rair.Config, rair.AppSpec and rair.Phases, matched
// case-insensitively.
//
// Example:
//
//	{
//	  "config":   {"layout": "halves", "scheme": "RA_RAIR", "seed": 7},
//	  "apps":     [{"app": 0, "loadFrac": 0.1, "globalFrac": 0.5},
//	               {"app": 1, "loadFrac": 0.9}],
//	  "phases":   {"warmup": 10000, "measure": 100000, "drain": 20000}
//	}
type File struct {
	Config rair.Config `json:"config"`
	// Apps are synthetic applications; mutually exclusive with PARSEC.
	Apps []rair.AppSpec `json:"apps,omitempty"`
	// PARSEC runs the PARSEC-proxy workloads over the memory system.
	PARSEC bool `json:"parsec,omitempty"`
	// AdversaryFlitRate adds chip-wide adversarial traffic (flits per
	// node per cycle).
	AdversaryFlitRate float64     `json:"adversaryFlitRate,omitempty"`
	Phases            rair.Phases `json:"phases"`
}

// Load reads and decodes a simulation file.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// Parse decodes a simulation document, rejecting unknown fields and
// anything after the document so typos fail loudly.
func Parse(raw []byte) (*File, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("config: data after the simulation document")
	}
	if f.PARSEC && len(f.Apps) > 0 {
		return nil, fmt.Errorf("config: apps and parsec are mutually exclusive")
	}
	if !f.PARSEC && len(f.Apps) == 0 {
		return nil, fmt.Errorf("config: no traffic (set apps or parsec)")
	}
	if f.Phases.Measure <= 0 {
		return nil, fmt.Errorf("config: phases.measure must be positive")
	}
	return &f, nil
}

// Build constructs the configured simulation.
func (f *File) Build() (*rair.Simulation, error) {
	sim, err := rair.New(f.Config)
	if err != nil {
		return nil, err
	}
	if f.PARSEC {
		if err := sim.AttachPARSEC(); err != nil {
			return nil, err
		}
	}
	for _, a := range f.Apps {
		if err := sim.AddApp(a); err != nil {
			return nil, err
		}
	}
	if f.AdversaryFlitRate != 0 {
		if err := sim.AddAdversary(f.AdversaryFlitRate); err != nil {
			return nil, err
		}
	}
	return sim, nil
}
