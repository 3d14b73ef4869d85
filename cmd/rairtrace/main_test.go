package main

import (
	"io"
	"strings"
	"testing"

	"rair/internal/trace"
)

// A replay that cannot succeed returns an error: a trace naming a node
// outside the 8×8 mesh is rejected before anything is built (it used to
// index past the NI table and panic), and packets still in flight when the
// drain budget runs out fail the replay.
func TestReplayTraceErrors(t *testing.T) {
	ev := func(cycle int64, src, dst int32) trace.Event {
		return trace.Event{Cycle: cycle, Src: src, Dst: dst, Size: 5}
	}
	for _, tc := range []struct {
		name   string
		scheme string
		events []trace.Event
		want   string
	}{
		{"node outside mesh", "RO_RR", []trace.Event{ev(0, 70, 1), ev(1, 0, 1)}, "src 70 outside mesh of 64 nodes"},
		{"drain timeout", "RO_RR", []trace.Event{ev(0, 0, 63), ev(1, 1, 62)}, "drain timeout"},
		{"unknown scheme", "RAIR_X", []trace.Event{ev(0, 0, 1)}, `unknown scheme "RAIR_X" (want one of RO_RR, RO_Rank,`},
	} {
		err := replayTrace(io.Discard, &trace.Trace{Events: tc.events}, tc.scheme, 0, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: replay returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
