package experiment

import (
	"fmt"
	"io"
	"strings"

	"rtsads/internal/metrics"
	"rtsads/internal/stats"
)

// Render writes the figure as an aligned text table: one row per x-axis
// point, hit-ratio mean ± 99% CI per algorithm, and — when exactly the two
// paper algorithms are present — the RT-SADS-minus-D-COLS difference with
// its Welch test significance at the paper's 0.01 level.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", len(f.Title)))

	header := []string{f.XLabel}
	for _, a := range f.Algorithms {
		header = append(header, fmt.Sprintf("%s hit%%", a))
	}
	twoWay := len(f.Algorithms) == 2
	if twoWay {
		header = append(header, "diff", "signif(0.01)")
	}
	rows := [][]string{header}
	for _, pt := range f.Points {
		row := []string{pt.Label}
		for _, a := range f.Algorithms {
			agg := pt.Aggs[a]
			row = append(row, fmt.Sprintf("%5.1f ±%.1f", 100*agg.HitRatio.Mean(), 100*agg.HitRatioCI()))
		}
		if twoWay {
			a, c := pt.Aggs[f.Algorithms[0]], pt.Aggs[f.Algorithms[1]]
			diff := 100 * (a.HitRatio.Mean() - c.HitRatio.Mean())
			row = append(row, fmt.Sprintf("%+5.1f", diff), significance(a, c))
		}
		rows = append(rows, row)
	}
	writeAligned(&b, rows)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	fmt.Fprintln(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderPlot draws the figure as an ASCII chart of mean hit ratios (in
// percent) against the x-axis.
func (f *Figure) RenderPlot(w io.Writer) error {
	curves := make([]series, 0, len(f.Algorithms))
	for _, a := range f.Algorithms {
		s := series{Name: string(a)}
		for _, pt := range f.Points {
			s.X = append(s.X, pt.X)
			s.Y = append(s.Y, 100*pt.Aggs[a].HitRatio.Mean())
		}
		curves = append(curves, s)
	}
	return lines(w, fmt.Sprintf("%s — hit%% vs %s", f.Title, f.XLabel), curves, 64, 16)
}

// RenderCSV writes the figure's raw series in CSV form: x, then per
// algorithm the mean hit ratio and the CI half-width.
func (f *Figure) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("x")
	for _, a := range f.Algorithms {
		fmt.Fprintf(&b, ",%s,%s_ci99", a, a)
	}
	b.WriteString("\n")
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "%g", pt.X)
		for _, a := range f.Algorithms {
			agg := pt.Aggs[a]
			fmt.Fprintf(&b, ",%.4f,%.4f", agg.HitRatio.Mean(), agg.HitRatioCI())
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// significance runs the paper's two-tailed difference-of-means test between
// two aggregates' hit ratios at the 0.01 level. Runs of the two algorithms
// use matched seeds, so the paired test applies; it falls back to Welch
// when the run counts differ.
func significance(a, b *metrics.Aggregate) string {
	var r stats.TTestResult
	var err error
	if len(a.HitRatios) == len(b.HitRatios) {
		r, err = stats.PairedTTest(a.HitRatios, b.HitRatios)
	} else {
		r, err = stats.WelchTTest(&a.HitRatio, &b.HitRatio)
	}
	if err != nil {
		return "n/a"
	}
	if r.Significant(0.01) {
		return fmt.Sprintf("yes (p=%.2g)", r.P)
	}
	return fmt.Sprintf("no (p=%.2g)", r.P)
}

// writeAligned renders rows as space-padded columns.
func writeAligned(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteString("\n")
		}
	}
}
