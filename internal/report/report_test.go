package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableFormat(t *testing.T) {
	tb := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
	}
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	tb.AddRow("gamma-long-name", 0.001234)
	out := tb.Format()
	if !strings.Contains(out, "Demo\n====") {
		t.Fatalf("missing title underline:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + underline + header + separator + 3 rows = 7
	if len(lines) != 7 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: every data line has "  " at the same position.
	if !strings.HasPrefix(lines[4], "alpha            ") {
		t.Fatalf("misaligned row: %q", lines[4])
	}
	if !strings.Contains(out, "1.23e-03") {
		t.Fatalf("small float formatting: %s", out)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("int formatting: %s", out)
	}
}

func TestTableNoHeaderNoTitle(t *testing.T) {
	tb := &Table{}
	tb.AddRow("x", "y")
	out := tb.Format()
	if strings.Contains(out, "=") || strings.Contains(out, "-") {
		t.Fatalf("unexpected decoration:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		-17:     "-17",
		3.14159: "3.142",
		0.005:   "5.00e-03",
		0:       "0",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteSeriesTSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig", "f.tsv")
	err := WriteSeriesTSV(path, []Series{
		{Name: "a", X: []float64{0, 1}, Y: []float64{10, 20}},
		{Name: "b", X: []float64{0.5}, Y: []float64{7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	want := "series\tx\ty\na\t0\t10\na\t1\t20\nb\t0.5\t7\n"
	if string(data) != want {
		t.Fatalf("tsv = %q", data)
	}
}

func TestWriteSeriesTSVLengthMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.tsv")
	err := WriteSeriesTSV(path, []Series{{Name: "a", X: []float64{1}, Y: nil}})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestWriteTSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tsv")
	if err := WriteTSV(path, []string{"h1", "h2"}, [][]string{{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "h1\th2\na\tb\n" {
		t.Fatalf("tsv = %q", data)
	}
}

func TestASCIIPlot(t *testing.T) {
	xs := []float64{0, 0.5, 1}
	ys := []float64{0, 1, 0}
	out := ASCIIPlot("tri", xs, ys, 20, 5)
	if !strings.Contains(out, "tri") || !strings.Contains(out, "*") {
		t.Fatalf("plot:\n%s", out)
	}
	// Degenerate inputs must not panic.
	if got := ASCIIPlot("none", nil, nil, 0, 0); !strings.Contains(got, "no data") {
		t.Fatalf("empty plot: %q", got)
	}
	flat := ASCIIPlot("flat", []float64{0, 1}, []float64{2, 2}, 0, 0)
	if !strings.Contains(flat, "*") {
		t.Fatalf("flat plot:\n%s", flat)
	}
}
