// Package report renders experiment results as aligned ASCII tables, CSV,
// and quick ASCII line plots, so the benchmark harness can print the same
// rows and series the paper's tables and figures report.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded, long rows are an error at
// render time.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	ncol := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > ncol {
			return fmt.Errorf("report: row has %d cells, table has %d columns", len(r), ncol)
		}
	}
	widths := make([]int, ncol)
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	seps := make([]string, ncol)
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV writes the table (header + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		row := make([]string, len(t.Columns))
		copy(row, r)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Series is one named line of a plot.
type Series struct {
	Name string
	X, Y []float64
}

// Plot is a set of series sharing axes.
type Plot struct {
	Title, XLabel, YLabel string
	Series                []Series
}

// markers assigns one rune per series.
var markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws an ASCII scatter/line chart of the series. Width and height
// are the interior plot dimensions in characters.
func (p *Plot) Render(w io.Writer, width, height int) error {
	if width < 10 || height < 4 {
		return fmt.Errorf("report: plot area %dx%d too small", width, height)
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	var npts int
	for _, s := range p.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("report: series %q has %d x but %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
			npts++
		}
	}
	if npts == 0 {
		return fmt.Errorf("report: plot has no points")
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for si, s := range p.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			c := int(math.Round((s.X[i] - xmin) / (xmax - xmin) * float64(width-1)))
			r := int(math.Round((s.Y[i] - ymin) / (ymax - ymin) * float64(height-1)))
			grid[height-1-r][c] = m
		}
	}
	if p.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", p.Title); err != nil {
			return err
		}
	}
	for r, row := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", ymax)
		case height - 1:
			label = fmt.Sprintf("%8.3g", ymin)
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%8s  %-*g%*g\n", "", width/2, xmin, width-width/2, xmax); err != nil {
		return err
	}
	var legend []string
	for si, s := range p.Series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	if _, err := fmt.Fprintf(w, "%8s  x: %s   %s\n", "", p.XLabel, strings.Join(legend, "  ")); err != nil {
		return err
	}
	return nil
}
