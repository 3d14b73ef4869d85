package network

import (
	"bytes"
	"testing"

	"rair/internal/obs"
	"rair/internal/telemetry"
)

func attributionCollector() *telemetry.Collector {
	return telemetry.NewCollector(telemetry.Config{Window: 128, Attribution: true})
}

// TestAttributionConservation is the accountant's books-balance contract on
// a fully drained run: every row's cause buckets plus inject-queue and
// zero-load cycles sum exactly to its measured packet latency total, the
// zero-load residual is never negative (no packet was double-charged in any
// cycle), and the folded per-row buckets sum to the charge-site counters
// (no charge was lost or folded twice).
func TestAttributionConservation(t *testing.T) {
	tel := attributionCollector()
	telemetryRun(t, 0, tel)

	rep := tel.Attribution()
	if rep == nil || len(rep.Rows) == 0 {
		t.Fatal("attribution on, but no decomposition rows")
	}
	if err := rep.Conservation(); err != nil {
		t.Fatal(err)
	}

	var native, foreign, escape int64
	for _, r := range rep.Rows {
		native += r.NativeCycles
		foreign += r.ForeignCycles
		escape += r.EscapeCycles
	}
	tot := tel.Totals()
	if native != tot.AttrNativeCycles || foreign != tot.AttrForeignCycles || escape != tot.AttrEscapeCycles {
		t.Fatalf("folded buckets (n=%d f=%d e=%d) != charged counters (n=%d f=%d e=%d)",
			native, foreign, escape, tot.AttrNativeCycles, tot.AttrForeignCycles, tot.AttrEscapeCycles)
	}
	// The quadrant workload contends across regions, so the headline signal
	// must actually fire: some foreign-region interference was observed.
	if foreign == 0 {
		t.Fatal("no foreign-region interference charged on a cross-region workload")
	}
	if rep.Total.TotalCycles == 0 || rep.Total.Packets == 0 {
		t.Fatalf("empty total row: %+v", rep.Total)
	}
}

// TestAttributionObserverOnly is the never-perturb contract: the delivery
// trace with attribution enabled is bit-identical to the bare run, at every
// worker count.
func TestAttributionObserverOnly(t *testing.T) {
	base := telemetryRun(t, 0, nil)
	if len(base) == 0 {
		t.Fatal("no deliveries")
	}
	for _, workers := range []int{1, 2, 4} {
		got := telemetryRun(t, workers, attributionCollector())
		if len(got) != len(base) {
			t.Fatalf("workers=%d attribution on: %d delivery records, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d attribution on: delivery trace diverged at record %d", workers, i)
			}
		}
	}
}

// TestAttributionDeterministicAcrossWorkers pins the probe-ownership
// discipline: the run record's telemetry and attribution sections —
// counters, windowed blame series, decompositions — are byte-identical at
// 1, 2 and 4 workers.
func TestAttributionDeterministicAcrossWorkers(t *testing.T) {
	var baseReport []byte
	for _, workers := range []int{1, 2, 4} {
		tel := attributionCollector()
		telemetryRun(t, workers, tel)
		var buf bytes.Buffer
		if err := obs.WriteJSON(&buf, tel.Report()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSON(&buf, tel.Attribution()); err != nil {
			t.Fatal(err)
		}
		if baseReport == nil {
			baseReport = buf.Bytes()
			continue
		}
		if !bytes.Equal(baseReport, buf.Bytes()) {
			t.Fatalf("attribution report differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestAttributionWindowSeries checks the windowed interference-ratio series
// materializes: at least one window carries blame, and every window's ratio
// is consistent with its blame buckets.
func TestAttributionWindowSeries(t *testing.T) {
	tel := attributionCollector()
	telemetryRun(t, 0, tel)
	rep := tel.Report()
	seen := false
	for _, rt := range rep.Routers {
		for _, w := range rt.Windows {
			total := w.BlameNative + w.BlameForeign + w.BlameEscape
			if total == 0 {
				if w.InterferenceRatio != 0 {
					t.Fatalf("node %d: ratio %v with no blame", rt.Node, w.InterferenceRatio)
				}
				continue
			}
			seen = true
			want := float64(w.BlameForeign) / float64(total)
			if w.InterferenceRatio != want {
				t.Fatalf("node %d: ratio %v, want %v", rt.Node, w.InterferenceRatio, want)
			}
		}
	}
	if !seen {
		t.Fatal("no window carried blame on a contended workload")
	}
}

// TestAttributionOffLeavesNoTrace checks the off path stays invisible:
// with a collector but attribution off, no blame counters move, no
// decomposition materializes, and window samples stay blame-free.
func TestAttributionOffLeavesNoTrace(t *testing.T) {
	tel := telemetry.NewCollector(telemetry.Config{Window: 128})
	telemetryRun(t, 0, tel)
	tot := tel.Totals()
	if tot.AttrNativeCycles|tot.AttrForeignCycles|tot.AttrEscapeCycles != 0 {
		t.Fatalf("blame counters moved with attribution off: %+v", tot)
	}
	if rep := tel.Attribution(); rep != nil {
		t.Fatalf("decomposition materialized with attribution off: %+v", rep)
	}
}
