package eval

import (
	"strings"
	"testing"
)

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  []string{"a note"},
	}
	tab.AddRow(1.5, "x,y")
	tab.AddRow(0.000012, 7)
	text := tab.Render()
	if !strings.Contains(text, "== T: demo ==") || !strings.Contains(text, "note: a note") {
		t.Fatalf("render:\n%s", text)
	}
	if !strings.Contains(text, "1.5") {
		t.Fatal("float formatting")
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("csv quoting:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatal("csv header")
	}
	// Tiny floats switch to scientific notation.
	if !strings.Contains(csv, "e-05") {
		t.Fatalf("scientific formatting missing:\n%s", csv)
	}
}
