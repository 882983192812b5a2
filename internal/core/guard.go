package core

import (
	"time"

	"rtsads/internal/task"
)

// slackGuard presents its planner with shadow copies of the batch whose
// deadlines are shrunk by a guard band, so every schedule it accepts carries
// at least that much slack, and maps the schedule back to the real tasks.
// Everything downstream — delivery, workers, accounting — keeps the true
// deadlines, so the band absorbs wall-clock jitter (late dequeues, timer
// overshoot) that would otherwise turn a zero-slack schedule into a miss.
type slackGuard struct {
	Planner
	band time.Duration

	// Per-phase scratch: the shadows, the pointers handed to the planner,
	// and the way back from a shadow to its task.
	shadow  []task.Task
	guarded []*task.Task
	orig    map[task.ID]*task.Task
}

// NewSlackGuard wraps p with a deadline guard band; a band <= 0 returns p.
func NewSlackGuard(p Planner, band time.Duration) Planner {
	if band <= 0 {
		return p
	}
	return &slackGuard{Planner: p, band: band, orig: make(map[task.ID]*task.Task)}
}

// PlanPhase implements Planner.
func (g *slackGuard) PlanPhase(in PhaseInput) (PhaseResult, error) {
	clear(g.orig)
	// Sized up front: guarded points into shadow, which must not move.
	if cap(g.shadow) < len(in.Batch) {
		g.shadow = make([]task.Task, len(in.Batch))
	}
	shadow := g.shadow[:len(in.Batch)]
	guarded := g.guarded[:0]
	for i, t := range in.Batch {
		g.orig[t.ID] = t
		shadow[i] = *t
		shadow[i].Deadline = t.Deadline.Add(-g.band)
		guarded = append(guarded, &shadow[i])
	}
	g.guarded = guarded
	in.Batch = guarded
	out, err := g.Planner.PlanPhase(in)
	for i := range out.Schedule {
		out.Schedule[i].Task = g.orig[out.Schedule[i].Task.ID]
	}
	return out, err
}
