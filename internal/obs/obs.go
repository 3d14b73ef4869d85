// Package obs is the export surface of the observability layer: the run
// record's (rair.Report's) one JSON writer.
//
// The package only ever writes values the simulation layers already
// produced on the coordinating goroutine; it holds no probes and cannot
// perturb a run.
package obs

import (
	"encoding/json"
	"io"
)

// WriteJSON writes v as indented JSON. It is the run record's one writer
// (rair.Report.WriteJSON, rairsim -record); tests below the facade put the
// record's sections through it to compare the exact bytes the record would
// carry.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
