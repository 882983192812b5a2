package obs

import (
	"fmt"
	"io"
	"strings"
	"time"

	"rtsads/internal/simtime"
)

// Gantt renders the journal's exec entries as a per-worker timeline of the
// given width in characters (<= 0 selects 80). Each worker's row shows busy
// spans as '#' (deadline met) or 'x' (missed); '.' is idle time. Every
// other entry type is ignored.
func Gantt(w io.Writer, entries []Entry, workers, width int) error {
	if width <= 0 {
		width = 80
	}
	var end simtime.Instant
	for i := range entries {
		if e := &entries[i]; e.Type == "exec" {
			end = end.Max(e.Virtual.Add(e.Dur))
		}
	}
	if end == 0 {
		_, err := io.WriteString(w, "(no executions)\n")
		return err
	}
	scale := float64(width) / float64(end)
	rows := make([][]byte, workers)
	for k := range rows {
		rows[k] = []byte(strings.Repeat(".", width))
	}
	for i := range entries {
		e := &entries[i]
		if e.Type != "exec" || e.Worker < 0 || e.Worker >= workers {
			continue
		}
		mark := byte('#')
		if !e.Hit {
			mark = 'x'
		}
		lo := int(float64(e.Virtual) * scale)
		hi := min(int(float64(e.Virtual.Add(e.Dur))*scale), width-1)
		for c := lo; c <= hi; c++ {
			rows[e.Worker][c] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: 0 .. %v (%d cols, '#'=hit 'x'=miss)\n", time.Duration(end), width)
	for k, row := range rows {
		fmt.Fprintf(&b, "worker %2d |%s|\n", k, row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
