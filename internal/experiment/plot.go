package experiment

// The ASCII line charts behind -plot: enough to see the shape of a figure
// (who wins, what scales, where curves cross) without leaving the console.

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// series is one named curve.
type series struct {
	Name string
	X, Y []float64
}

// markers are assigned to series in order.
var markers = []byte{'*', 'o', '+', 'x', '@', '%', '&', '$'}

// lines renders the series into a width×height character grid with axes
// and a legend. X and Y ranges are derived from the data; Y starts at zero
// when all values are non-negative (hit ratios read better anchored).
func lines(w io.Writer, title string, series []series, width, height int) error {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 15
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}

	minX, maxX, minY, maxY, points := plotBounds(series)
	if points == 0 {
		fmt.Fprintln(&b, "(no data)")
		_, err := io.WriteString(w, b.String())
		return err
	}
	if minY > 0 {
		minY = 0 // anchor non-negative charts at zero
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			c := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			r := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(height-1)))
			row := height - 1 - r
			if row >= 0 && row < height && c >= 0 && c < width {
				grid[row][c] = mark
			}
		}
	}

	yTop := fmt.Sprintf("%.3g", maxY)
	yBot := fmt.Sprintf("%.3g", minY)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r, row := range grid {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case height - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", pad), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", pad),
		width-len(fmt.Sprintf("%.4g", maxX)), fmt.Sprintf("%.4g", minX), fmt.Sprintf("%.4g", maxX))

	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "  %s\n", strings.Join(legend, "   "))
	_, err := io.WriteString(w, b.String())
	return err
}

// plotBounds returns the data extents and the total point count.
func plotBounds(series []series) (minX, maxX, minY, maxY float64, points int) {
	first := true
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			x, y := s.X[i], s.Y[i]
			if first {
				minX, maxX, minY, maxY = x, x, y, y
				first = false
			}
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			points++
		}
	}
	return minX, maxX, minY, maxY, points
}
