package trace

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the trace reader: a malformed file
// is an error, never a panic, and reading allocates in proportion to the
// input, whatever its header claims. A trace that reads validates without
// a panic and survives a write/read round trip.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := sample().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(encode(1, 0))
	f.Add(encode(1, 1<<30, 0, 0, 0, 1, 0, 1))
	f.Add(encode(1, 2, math.MaxInt64, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		_ = tr.Validate(64)
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("a trace that reads does not write: %v", err)
		}
		back, err := Read(&out)
		if err != nil || !reflect.DeepEqual(back.Events, tr.Events) {
			t.Fatalf("round trip changed the trace: %v", err)
		}
	})
}
