// Package report renders the experiment outputs as aligned text tables and
// ASCII charts, matching the rows and series the paper's tables and figures
// present.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Pct formats a percentage with no decimals, like the paper's tables.
func Pct(v float64) string { return fmt.Sprintf("%.0f%%", v) }

// Pct1 formats a percentage with one decimal.
func Pct1(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// MInstr formats an instruction count in millions, like Table II's "6,217 M".
func MInstr(n int) string {
	m := float64(n) / 1e6
	if m >= 100 {
		return fmt.Sprintf("%.0f M", m)
	}
	return fmt.Sprintf("%.2f M", m)
}

// KB formats a byte count like Table I ("955 KB", "1.6 MB").
func KB(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%.1f KB", float64(n)/1024)
}

// Chart renders an ASCII line chart of one or two series over a shared x
// axis. Values are expected in [0, 100] (percentages).
type Chart struct {
	Title   string
	XLabel  string
	Height  int
	Width   int
	SeriesA []float64 // drawn with '*'
	SeriesB []float64 // drawn with 'o' (optional)
	ALegend string
	BLegend string
}

// String renders the chart.
func (c *Chart) String() string {
	h, w := c.Height, c.Width
	if h <= 0 {
		h = 12
	}
	if w <= 0 {
		w = 72
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	plot := func(series []float64, mark byte) {
		if len(series) == 0 {
			return
		}
		for x := 0; x < w; x++ {
			idx := x * (len(series) - 1) / max(w-1, 1)
			v := series[idx]
			if v < 0 {
				v = 0
			}
			if v > 100 {
				v = 100
			}
			y := h - 1 - int(v/100*float64(h-1)+0.5)
			grid[y][x] = mark
		}
	}
	plot(c.SeriesA, '*')
	plot(c.SeriesB, 'o')

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, row := range grid {
		pct := 100 - i*100/(h-1)
		fmt.Fprintf(&b, "%3d%% |%s|\n", pct, string(row))
	}
	fmt.Fprintf(&b, "     +%s+\n", strings.Repeat("-", w))
	if c.XLabel != "" {
		fmt.Fprintf(&b, "      %s\n", c.XLabel)
	}
	if c.ALegend != "" {
		fmt.Fprintf(&b, "      * %s", c.ALegend)
		if c.BLegend != "" {
			fmt.Fprintf(&b, "   o %s", c.BLegend)
		}
		b.WriteString("\n")
	}
	return b.String()
}
