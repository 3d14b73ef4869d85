package harness

import (
	"strings"
	"testing"
)

func TestTableCSVQuoting(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow(`x,y`, `he said "hi"`)
	csv := tbl.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"he said ""hi"""`) {
		t.Errorf("CSV quoting broken: %q", csv)
	}
}
