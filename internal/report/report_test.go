package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22.5")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "name", "value", "alpha", "22.5", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: "value" column starts at the same offset in all rows.
	hdr := strings.Index(lines[1], "value")
	row := strings.Index(lines[3], "1")
	if hdr != row {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableRenderRejectsWideRows(t *testing.T) {
	tb := NewTable("", "one")
	tb.AddRow("a", "b")
	if err := tb.Render(&bytes.Buffer{}); err == nil {
		t.Error("over-wide row accepted")
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "only") {
		t.Error("short row lost")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("t", "x", "y")
	tb.AddRow("1", "2")
	tb.AddRow("3", "4,5") // needs quoting
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "x,y\n1,2\n") || !strings.Contains(got, `"4,5"`) {
		t.Errorf("CSV = %q", got)
	}
}

func TestPlotRender(t *testing.T) {
	p := &Plot{
		Title:  "ΔT vs r",
		XLabel: "r [µm]",
		Series: []Series{
			{Name: "A", X: []float64{1, 2, 3}, Y: []float64{10, 5, 2}},
			{Name: "B", X: []float64{1, 2, 3}, Y: []float64{12, 6, 3}},
		},
	}
	var buf bytes.Buffer
	if err := p.Render(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ΔT vs r", "* A", "o B", "r [µm]", "12", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	if !strings.ContainsRune(out, '*') || !strings.ContainsRune(out, 'o') {
		t.Error("markers missing")
	}
}

func TestPlotErrors(t *testing.T) {
	p := &Plot{Series: []Series{{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}}}
	if err := p.Render(&bytes.Buffer{}, 40, 10); err == nil {
		t.Error("ragged series accepted")
	}
	empty := &Plot{}
	if err := empty.Render(&bytes.Buffer{}, 40, 10); err == nil {
		t.Error("empty plot accepted")
	}
	ok := &Plot{Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{1}}}}
	if err := ok.Render(&bytes.Buffer{}, 2, 2); err == nil {
		t.Error("tiny plot area accepted")
	}
	// Degenerate ranges (single point) must still render.
	if err := ok.Render(&bytes.Buffer{}, 20, 5); err != nil {
		t.Errorf("single-point plot failed: %v", err)
	}
}
