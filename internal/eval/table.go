package eval

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a titled grid with a header
// row, printable as aligned text or CSV.
type Table struct {
	ID     string // experiment ID, e.g. "E4"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row; values are stringified with %v unless
// they implement fmt.Stringer, and float64 gets 4 significant digits.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		case fmt.Stringer:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v != v: // NaN
		return "nan"
	}
	a := v
	if a < 0 {
		a = -a
	}
	if a >= 0.01 && a < 1e6 {
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
	}
	return fmt.Sprintf("%.3e", v)
}

// Render returns the aligned-text form of the table.
func (t *Table) Render() string {
	var b strings.Builder
	if t.ID != "" || t.Title != "" {
		fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV returns the comma-separated form (header first). Cells containing
// commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
