package experiment

import (
	"strings"
	"testing"
)

func TestLinesBasic(t *testing.T) {
	var b strings.Builder
	err := lines(&b, "demo", []series{
		{Name: "up", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
		{Name: "down", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}},
	}, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"demo", "* up", "o down", "+--"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// Both markers must appear in the grid.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("markers missing from grid")
	}
}

func TestLinesEmpty(t *testing.T) {
	var b strings.Builder
	if err := lines(&b, "empty", nil, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no data") {
		t.Errorf("empty plot output: %q", b.String())
	}
}

func TestLinesConstantSeries(t *testing.T) {
	// Degenerate ranges (single point, constant Y) must not divide by zero.
	var b strings.Builder
	err := lines(&b, "", []series{{Name: "flat", X: []float64{5}, Y: []float64{2}}}, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Error("single point not plotted")
	}
}

func TestLinesDefaultsDimensions(t *testing.T) {
	var b strings.Builder
	err := lines(&b, "", []series{{Name: "s", X: []float64{0, 1}, Y: []float64{0, 1}}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(rows) < 15 {
		t.Errorf("default height not applied: %d rows", len(rows))
	}
}

func TestLinesAnchorsZero(t *testing.T) {
	// Non-negative data must anchor the y-axis at 0.
	var b strings.Builder
	err := lines(&b, "", []series{{Name: "s", X: []float64{0, 1}, Y: []float64{5, 10}}}, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0 |") {
		t.Errorf("y-axis not anchored at zero:\n%s", b.String())
	}
}

func TestLinesMismatchedXYLengths(t *testing.T) {
	var b strings.Builder
	// Y shorter than X: extra X values ignored, no panic.
	err := lines(&b, "", []series{{Name: "s", X: []float64{1, 2, 3}, Y: []float64{1}}}, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
}
