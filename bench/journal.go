package main

import (
	"sort"
	"time"

	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// The latency metrics are read from the product's own lifecycle journal,
// after the run: the bench adds no probe to the task path. That ties the
// benchmark to four entry types — route, arrival, deliver, exec — and to
// the meaning of their Wall and Virtual stamps (README.md, "Dependency on
// the journal").

// taskIndex maps a task ID to its task; generated IDs are 0..n-1.
type taskIndex []*task.Task

func indexTasks(ts []*task.Task) taskIndex {
	idx := make(taskIndex, len(ts))
	for _, t := range ts {
		if int(t.ID) < len(idx) {
			idx[t.ID] = t
		}
	}
	return idx
}

// taskSpan is one task's path through the layers: the first occurrence of
// each boundary entry, however often the task was migrated or re-offered.
type taskSpan struct {
	routed, arrived, delivered, executed bool

	route, arrival, deliver, verdict time.Time // wall stamps of the entries

	plannedStart simtime.Instant // host's model of when the worker starts it
	start        simtime.Instant // when the worker did
	dur          time.Duration   // virtual execution time
	// expiredAtWorker: delivered, then refused at the worker's queue head
	// because the deadline had become unreachable.
	expiredAtWorker bool
}

// spanSet is every task's span plus what the set as a whole yields.
type spanSet struct {
	spans []taskSpan
	tasks taskIndex
	scale float64
	// epoch is the wall instant of virtual time zero, recovered from the
	// entries (the product owns the clock).
	epoch time.Time
	// hostWall and phases are the wall time the host loops spent between
	// the first and the last journal entry of each scheduling iteration,
	// and the number of iterations.
	hostWall    time.Duration
	phases      int
	hostEntries int
}

// hostEntry is one entry written by a shard's host goroutine.
type hostEntry struct {
	seq  int64
	wall time.Time
	typ  string
}

// workerKey names one worker of one shard.
type workerKey struct{ shard, worker int }

// assembleSpans walks a journal (one cluster's, or a federation's merged
// one) in record order.
func assembleSpans(entries []obs.Entry, tasks taskIndex, scale float64) *spanSet {
	s := &spanSet{spans: make([]taskSpan, len(tasks)), tasks: tasks, scale: scale}
	host := make(map[int][]hostEntry)
	freeAt := make(map[workerKey]simtime.Instant)
	haveEpoch := false
	for i := range entries {
		e := &entries[i]
		switch e.Type {
		case "route", "admit", "phase-start", "deliver":
			// These carry a clock reading taken just before the wall
			// stamp, so Wall − Virtual×Scale is never before the epoch and
			// the smallest one is within a microsecond of it.
			at := e.Wall.Add(-time.Duration(float64(e.Virtual) * scale))
			if !haveEpoch || at.Before(s.epoch) {
				s.epoch, haveEpoch = at, true
			}
		}
		switch e.Type {
		case "arrival", "admit", "phase-start", "phase-end", "deliver":
			host[e.Shard] = append(host[e.Shard], hostEntry{e.Seq, e.Wall, e.Type})
		}
		if e.Task < 0 || e.Task >= len(s.spans) {
			continue
		}
		sp := &s.spans[e.Task]
		switch e.Type {
		case "route":
			if !sp.routed {
				sp.routed, sp.route = true, e.Wall
			}
		case "arrival":
			if !sp.arrived {
				sp.arrived, sp.arrival = true, e.Wall
			}
		case "deliver":
			// Replay the host's backlog model: a job starts when it is
			// delivered or when the worker's previous job is due to end.
			k := workerKey{e.Shard, e.Worker}
			planned := e.Virtual.Max(freeAt[k])
			if t := tasks[e.Task]; t != nil {
				freeAt[k] = planned.Add(t.Proc + e.Dur)
			}
			if !sp.delivered {
				sp.delivered, sp.deliver, sp.plannedStart = true, e.Wall, planned
			}
		case "exec":
			if !sp.executed {
				sp.executed, sp.verdict, sp.start, sp.dur = true, e.Wall, e.Virtual, e.Dur
			}
		case "purge":
			if sp.delivered && !sp.executed {
				sp.expiredAtWorker = true
			}
		}
	}
	for _, hs := range host {
		s.hostEntries += len(hs)
		wall, n := hostIterations(hs)
		s.hostWall += wall
		s.phases += n
	}
	return s
}

// hostIterations sums, over one shard's scheduling iterations, the wall
// time from the iteration's first host entry (the first arrival it
// absorbed, else its phase-start) to its last (its last deliver, else its
// phase-end).
func hostIterations(hs []hostEntry) (time.Duration, int) {
	sort.Slice(hs, func(a, b int) bool { return hs[a].seq < hs[b].seq })
	var total time.Duration
	var first, last time.Time
	open, planned, n := false, false, 0
	closeIter := func() {
		if open && planned {
			total += last.Sub(first)
			n++
		}
		open, planned = false, false
	}
	for _, h := range hs {
		switch h.typ {
		case "arrival", "admit", "phase-start":
			if planned {
				closeIter() // the previous iteration ended with its phase
			}
			if !open {
				open, first = true, h.wall
			}
		case "phase-end":
			planned = true
		}
		last = h.wall
	}
	closeIter()
	return total, n
}

// door is the wall instant the task entered the product: the router's
// route entry, or the host's arrival entry for a single cluster.
func (sp *taskSpan) door() (time.Time, bool) {
	if sp.routed {
		return sp.route, true
	}
	return sp.arrival, sp.arrived
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// sorted collects f over every task for which it applies, ascending.
func (s *spanSet) sorted(f func(id int, sp *taskSpan) (float64, bool)) []float64 {
	out := make([]float64, 0, len(s.spans))
	for id := range s.spans {
		if v, ok := f(id, &s.spans[id]); ok {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// dispatchMicros is front door → deliver entry, per delivered task.
func (s *spanSet) dispatchMicros() []float64 {
	return s.sorted(func(_ int, sp *taskSpan) (float64, bool) {
		d, ok := sp.door()
		if !ok || !sp.delivered {
			return 0, false
		}
		return micros(sp.deliver.Sub(d)), true
	})
}

// latenessMicros is how late each task entered the front door against the
// instant its arrival time was due — the open-loop generator's lag.
func (s *spanSet) latenessMicros() []float64 {
	return s.sorted(func(id int, sp *taskSpan) (float64, bool) {
		d, ok := sp.door()
		if !ok || s.tasks[id] == nil {
			return 0, false
		}
		return micros(d.Sub(dueAt(s.epoch, s.tasks[id].Arrival, s.scale))), true
	})
}

// inboxWaitMicros is route entry → the shard host's arrival entry.
func (s *spanSet) inboxWaitMicros() []float64 {
	return s.sorted(func(_ int, sp *taskSpan) (float64, bool) {
		if !sp.routed || !sp.arrived {
			return 0, false
		}
		return micros(sp.arrival.Sub(sp.route)), true
	})
}

// startLatenessMicros is actual − planned start, in wall time: how long
// the worker took to wake up and reach the job.
func (s *spanSet) startLatenessMicros() []float64 {
	return s.sorted(func(_ int, sp *taskSpan) (float64, bool) {
		if !sp.delivered || !sp.executed {
			return 0, false
		}
		return float64(sp.start.Sub(sp.plannedStart)) * s.scale / 1e3, true
	})
}

// responseMillis is due instant → finish in wall time, executed tasks only.
func (s *spanSet) responseMillis() []float64 {
	return s.sorted(func(id int, sp *taskSpan) (float64, bool) {
		if !sp.executed || s.tasks[id] == nil {
			return 0, false
		}
		return float64(sp.start.Add(sp.dur).Sub(s.tasks[id].Arrival)) * s.scale / 1e6, true
	})
}

// verdictLagMicros is finish → the exec entry that books the verdict.
func (s *spanSet) verdictLagMicros() []float64 {
	return s.sorted(func(_ int, sp *taskSpan) (float64, bool) {
		if !sp.executed {
			return 0, false
		}
		return micros(sp.verdict.Sub(dueAt(s.epoch, sp.start.Add(sp.dur), s.scale))), true
	})
}

// count returns how many tasks satisfy f.
func (s *spanSet) count(f func(*taskSpan) bool) int {
	n := 0
	for i := range s.spans {
		if f(&s.spans[i]) {
			n++
		}
	}
	return n
}
