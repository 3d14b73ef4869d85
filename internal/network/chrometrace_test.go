package network

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rair/internal/telemetry"
)

// chromeEvent mirrors the trace_event JSON shape for validation; unknown
// fields are deliberately dropped so the check pins semantics, not layout.
type chromeEvent struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Phase string `json:"ph"`
	TS    int64  `json:"ts"`
	Dur   int64  `json:"dur"`
	PID   uint64 `json:"pid"`
	TID   int64  `json:"tid"`
}

type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// validateChromeTrace checks the export is loadable and well-formed: valid
// JSON, every event carries a name/phase, durations are positive, and each
// packet's events are in non-decreasing time order (chrome://tracing
// renders out-of-order spans as garbage silently).
func validateChromeTrace(t *testing.T, raw []byte) {
	t.Helper()
	var ct chromeTraceFile
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	lastTS := map[uint64]int64{}
	for i, e := range ct.TraceEvents {
		if e.Name == "" || e.Phase == "" {
			t.Fatalf("event %d missing name or phase: %+v", i, e)
		}
		if e.TS < 0 {
			t.Fatalf("event %d has negative timestamp: %+v", i, e)
		}
		if e.Phase == "X" && e.Dur < 1 {
			t.Fatalf("event %d is a span with non-positive duration: %+v", i, e)
		}
		if last, ok := lastTS[e.PID]; ok && e.TS < last {
			t.Fatalf("event %d goes backwards in time for packet %d: %d < %d", i, e.PID, e.TS, last)
		}
		lastTS[e.PID] = e.TS
	}
}

// TestChromeTraceGolden is the export-stability contract: the Chrome trace
// of a fixed small workload is byte-identical at 1, 2 and 4 workers and to
// the committed golden (refresh with `RAIR_UPDATE_GOLDENS=1 go test
// ./internal/network -run ChromeTraceGolden`), and validates clean.
func TestChromeTraceGolden(t *testing.T) {
	var base []byte
	for _, workers := range []int{1, 2, 4} {
		tel := telemetry.NewCollector(telemetry.Config{Window: 128, TraceEvery: 257})
		telemetryRun(t, workers, tel)
		var buf bytes.Buffer
		if err := tel.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = buf.Bytes()
			continue
		}
		if !bytes.Equal(base, buf.Bytes()) {
			t.Fatalf("chrome trace differs between workers=1 and workers=%d", workers)
		}
	}
	validateChromeTrace(t, base)

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if os.Getenv("RAIR_UPDATE_GOLDENS") == "1" {
		if err := os.WriteFile(golden, base, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with RAIR_UPDATE_GOLDENS=1): %v", err)
	}
	if !bytes.Equal(base, want) {
		t.Fatalf("chrome trace diverged from %s (%d bytes vs %d); regenerate with RAIR_UPDATE_GOLDENS=1 if the change is intended",
			golden, len(base), len(want))
	}
}
