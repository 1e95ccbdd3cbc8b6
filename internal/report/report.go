// Package report renders analysis results as aligned ASCII tables for the
// terminal and TSV files for plotting — the formats the experiment harness
// uses to regenerate every table and figure of the evaluation.
package report

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Table is a titled, column-aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders floats compactly: integers without decimals, small
// magnitudes with enough precision to be useful.
func FormatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v != 0 && (v < 0.01 && v > -0.01):
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", width[i]))
		}
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is one named data series of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// WriteSeriesTSV writes figure data in long format (series, x, y), one
// file per figure, ready for gnuplot/Python plotting.
func WriteSeriesTSV(path string, series []Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "series\tx\ty")
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			f.Close()
			return fmt.Errorf("report: series %q has %d xs but %d ys", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			fmt.Fprintf(w, "%s\t%g\t%g\n", s.Name, s.X[i], s.Y[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTSV writes a generic TSV table.
func WriteTSV(path string, header []string, rows [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ASCIIPlot renders a quick y-vs-x line chart in text, for terminal
// inspection of folded curves without leaving the CLI. xs must be
// ascending; ys are scaled into `height` rows over `width` columns.
func ASCIIPlot(title string, xs, ys []float64, width, height int) string {
	if width < 10 {
		width = 72
	}
	if height < 4 {
		height = 16
	}
	if len(xs) == 0 || len(xs) != len(ys) {
		return title + ": (no data)\n"
	}
	minY, maxY := ys[0], ys[0]
	for _, y := range ys {
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	x0, x1 := xs[0], xs[len(xs)-1]
	if x1 == x0 {
		x1 = x0 + 1
	}
	for i := range xs {
		c := int((xs[i] - x0) / (x1 - x0) * float64(width-1))
		r := height - 1 - int((ys[i]-minY)/(maxY-minY)*float64(height-1))
		grid[r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [y: %s .. %s]\n", title, FormatFloat(minY), FormatFloat(maxY))
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, " x: %s .. %s\n", FormatFloat(x0), FormatFloat(x1))
	return b.String()
}
