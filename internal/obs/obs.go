// Package obs is the export surface of the observability layer: the run
// record's (rair.Report's) two formats — its one JSON writer and the
// Prometheus text exposition of the series the record walks — and a small
// HTTP listener (server.go) that serves the latest published record live at
// /snapshot and /metrics.
//
// The package only ever writes values the simulation layers already
// produced on the coordinating goroutine; it holds no probes and cannot
// perturb a run.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteJSON writes v as indented JSON. It is the run record's one writer
// (rair.Report.WriteJSON, the /snapshot payload, rairsim -record); tests
// below the facade put the record's sections through it to compare the
// exact bytes the record would carry.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Emit receives one Prometheus sample: the series name, its family's HELP
// text and TYPE, the rendered labels (without braces; "" for none) and the
// value.
type Emit func(name, help, typ, labels string, v float64)

// WritePrometheus writes the samples walk emits in Prometheus text
// exposition format (version 0.0.4). Samples of one family must be emitted
// contiguously; HELP and TYPE go once before each family, and histogram
// series share their base name's family.
func WritePrometheus(w io.Writer, walk func(Emit)) error {
	var err error
	lastFamily := ""
	walk(func(name, help, typ, labels string, v float64) {
		if err != nil {
			return
		}
		family := name
		if typ == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suf)
			}
		}
		if family != lastFamily {
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
			lastFamily = family
		}
		if err == nil && labels == "" {
			_, err = fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
		} else if err == nil {
			_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, fmtFloat(v))
		}
	})
	return err
}

// fmtFloat renders a metric value: integral values without an exponent,
// everything else in Go's shortest form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
