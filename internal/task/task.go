// Package task defines the real-time task model of the paper: aperiodic,
// non-preemptable, independent tasks with arrival times, processing times,
// deadlines and processor affinities, plus the batch bookkeeping used by the
// phase-based schedulers.
package task

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/simtime"
)

// ID identifies a task within one workload.
type ID int32

// Task is one aperiodic real-time task (in the evaluation: one read-only
// database transaction). Tasks are immutable once generated; schedulers and
// machines share pointers to them.
type Task struct {
	ID       ID
	Arrival  simtime.Instant // a_i: when the task reaches the host
	Proc     time.Duration   // p_i: worst-case processing time
	Deadline simtime.Instant // d_i: absolute deadline
	Affinity affinity.Set    // processors that hold the task's data locally

	// Actual is the task's true processing time, revealed only at
	// execution: the scheduler plans with the worst case Proc, and workers
	// that finish early can have the difference reclaimed (the resource
	// reclaiming of the paper's refs [3][5]). Zero means exactly Proc.
	Actual time.Duration

	// Payload optionally carries the domain object behind the task (for the
	// database application, the transaction index into the workload).
	Payload int32
}

// ActualProc returns the task's true processing time: Actual when set,
// otherwise the worst case Proc.
func (t *Task) ActualProc() time.Duration {
	if t.Actual > 0 {
		return t.Actual
	}
	return t.Proc
}

// Slack returns the maximum time the task's execution start can be delayed
// past now without missing its deadline, ignoring communication costs:
// d_i - now - p_i. It may be negative.
func (t *Task) Slack(now simtime.Instant) time.Duration {
	return t.Deadline.Sub(now) - t.Proc
}

// Missed reports whether the task can no longer meet its deadline even if
// executed immediately at now with zero communication cost — the paper's
// batch purge condition p_i + t_c > d_i.
func (t *Task) Missed(now simtime.Instant) bool {
	return !Fits(now, t.Proc, 0, t.Deadline)
}

// LatestStart returns d_i - p_i: the last instant the task can start and
// still finish by its deadline. Never stays Never.
func (t *Task) LatestStart() simtime.Instant {
	return t.Deadline.Add(-t.Proc)
}

// Fits is the paper's §4.3 inequality, the one place it is written: work
// that starts at start and occupies se (p_l plus c_lk plus whatever queues
// ahead of it, RQs(j)) finishes at least margin before deadline,
// start + se + margin <= deadline. Every feasibility, hopeless, purge,
// expiry and hit test calls it. A sum that wrapped — a negative se, such as
// a saturated load (a crashed worker) plus a task, or se + margin past the
// largest Duration — never fits. The margin is a non-negative planning guard
// band: the scheduled finish must leave that much slack.
func Fits(start simtime.Instant, se, margin time.Duration, deadline simtime.Instant) bool {
	end := se + margin
	return se >= 0 && end >= se && !start.Add(end).After(deadline)
}

// String renders a compact description for logs and test failures.
func (t *Task) String() string {
	return fmt.Sprintf("T%d{p=%v d=%s aff=%s}", t.ID, t.Proc, t.Deadline, t.Affinity)
}

// Batch is the mutable working set of tasks the scheduler considers during
// one scheduling phase: Batch(j+1) is formed from Batch(j) by removing the
// tasks scheduled in phase j and the tasks whose deadlines were missed, and
// adding the tasks that arrived during phase j.
type Batch struct {
	tasks []*Task
	// removed and drop are scratch space reused across removeIf and
	// RemoveScheduled calls, so the steady-state phase loop (purge, plan,
	// remove scheduled) allocates nothing once warm.
	removed []*Task
	drop    map[ID]struct{}
	// horizon is a conservative lower bound on the earliest instant any
	// batched task can become missed: min_i(d_i - p_i) over tasks added
	// since the last purge scan. While now <= horizon, PurgeMissed is a
	// comparison instead of an O(n) scan. Removals may leave it lower than
	// the true minimum, which only costs an occasional redundant scan.
	horizon simtime.Instant
}

// NewBatch returns a batch seeded with the given tasks.
func NewBatch(tasks ...*Task) *Batch {
	b := &Batch{tasks: make([]*Task, 0, len(tasks)), horizon: simtime.Never}
	b.Add(tasks...)
	return b
}

// Reset empties the batch in place, keeping its scratch storage so a pooled
// batch's next fill allocates nothing. Cleared slots are nilled so the old
// run's tasks are not pinned by the backing arrays.
func (b *Batch) Reset() {
	clear(b.tasks[:cap(b.tasks)])
	b.tasks = b.tasks[:0]
	clear(b.removed[:cap(b.removed)])
	b.removed = b.removed[:0]
	b.horizon = simtime.Never
}

// Len returns the number of tasks in the batch.
func (b *Batch) Len() int { return len(b.tasks) }

// Tasks returns the batch's backing slice. Callers must treat it as
// read-only; it is invalidated by the next mutating call.
func (b *Batch) Tasks() []*Task { return b.tasks }

// Add appends arriving tasks to the batch.
func (b *Batch) Add(tasks ...*Task) {
	for _, t := range tasks {
		if ls := t.LatestStart(); ls.Before(b.horizon) {
			b.horizon = ls
		}
	}
	b.tasks = append(b.tasks, tasks...)
}

// PurgeMissed removes and returns every task that has already missed its
// deadline at now (p_i + t_c > d_i). The returned slice is scratch space
// owned by the batch: it is only valid until the next PurgeMissed or
// RemoveScheduled call.
func (b *Batch) PurgeMissed(now simtime.Instant) []*Task {
	// A task is missed only once now passes its latest start d_i - p_i, so
	// no scan can remove anything before the batch-wide minimum. A
	// zero-valued Batch has horizon 0 and simply always scans.
	if !now.After(b.horizon) {
		return b.removed[:0]
	}
	horizon := simtime.Never
	removed := b.removeIf(func(t *Task) bool {
		if t.Missed(now) {
			return true
		}
		if ls := t.LatestStart(); ls.Before(horizon) {
			horizon = ls
		}
		return false
	})
	b.horizon = horizon
	return removed
}

// RemoveScheduled removes the given tasks from the batch. Tasks scheduled in
// phase j never enter Batch(j+1). It returns the number removed.
func (b *Batch) RemoveScheduled(scheduled []*Task) int {
	if len(scheduled) == 0 {
		return 0
	}
	// Planner schedules are subsequences of the batch's order — the search
	// assigns tasks in scheduling-priority order over the very pointers the
	// batch holds — so a two-pointer merge removes them in one pass of
	// pointer compares. Anything left unmatched (an out-of-order or foreign
	// caller) falls back to matching by ID.
	j := 0
	n := len(b.removeIf(func(t *Task) bool {
		if j < len(scheduled) && scheduled[j] == t {
			j++
			return true
		}
		return false
	}))
	if j < len(scheduled) {
		n += b.removeByID(scheduled[j:])
	}
	return n
}

// removeByID removes the given tasks from the batch by ID match, in any
// order — the slow path behind RemoveScheduled.
func (b *Batch) removeByID(scheduled []*Task) int {
	// Small sets are cheaper to match by linear scan than through a map;
	// large ones reuse the batch's drop set (cleared, not reallocated).
	if len(scheduled) <= 8 {
		removed := b.removeIf(func(t *Task) bool {
			for _, s := range scheduled {
				if s.ID == t.ID {
					return true
				}
			}
			return false
		})
		return len(removed)
	}
	if b.drop == nil {
		b.drop = make(map[ID]struct{}, len(scheduled))
	} else {
		clear(b.drop)
	}
	for _, t := range scheduled {
		b.drop[t.ID] = struct{}{}
	}
	removed := b.removeIf(func(t *Task) bool {
		_, ok := b.drop[t.ID]
		return ok
	})
	return len(removed)
}

// removeIf removes every task matching pred, preserving the order of the
// remainder, and returns the removed tasks in the batch's reusable scratch
// slice (valid until the next removal).
func (b *Batch) removeIf(pred func(*Task) bool) []*Task {
	removed := b.removed[:0]
	keep := b.tasks[:0]
	for _, t := range b.tasks {
		if pred(t) {
			removed = append(removed, t)
		} else {
			keep = append(keep, t)
		}
	}
	// Clear the tail so removed tasks are not pinned by the backing array.
	for i := len(keep); i < len(b.tasks); i++ {
		b.tasks[i] = nil
	}
	b.tasks = keep
	b.removed = removed
	return removed
}

// MinSlack returns the smallest slack among the batch's tasks at now — the
// paper's Min_Slack term of the quantum criterion. The second result is
// false when the batch is empty.
func (b *Batch) MinSlack(now simtime.Instant) (time.Duration, bool) {
	if len(b.tasks) == 0 {
		return 0, false
	}
	min := b.tasks[0].Slack(now)
	for _, t := range b.tasks[1:] {
		if s := t.Slack(now); s < min {
			min = s
		}
	}
	return min, true
}

// SortEDF orders the batch by ascending deadline (earliest deadline first),
// breaking ties by task ID for determinism.
func (b *Batch) SortEDF() {
	SortEDF(b.tasks)
}

// SortLLF orders the batch by ascending static laxity (deadline minus
// processing time) — least-laxity-first, the classic alternative to EDF for
// the scheduling-priority heuristic. With a common reference time the
// dynamic laxity d - now - p orders identically, so the static key
// suffices.
func (b *Batch) SortLLF() {
	SortLLF(b.tasks)
}

// SortLLF orders tasks by ascending laxity (Deadline - Proc), breaking ties
// by ID.
func SortLLF(tasks []*Task) {
	sortByKey(tasks, func(t *Task) int64 { return int64(t.LatestStart()) })
}

// SortEDF orders tasks by ascending deadline, breaking ties by ID. It is the
// scheduling-priority heuristic both search representations use to decide
// which task to consider next.
func SortEDF(tasks []*Task) {
	sortByKey(tasks, func(t *Task) int64 { return int64(t.Deadline) })
}

// sortKey carries one task's sort key so the comparator touches only the
// key array — the per-phase re-sorts were dominated by the two *Task
// dereferences inside the comparator, not by the comparisons themselves.
type sortKey struct {
	key int64
	id  ID
	t   *Task
}

// keyPool recycles the key arrays; sorts can run concurrently (one live
// host loop per shard), so the scratch cannot be a package global.
var keyPool = sync.Pool{New: func() any { return new([]sortKey) }}

// sortByKey sorts tasks by (key(t), ID) ascending through a flat key array.
// pdqsort is allocation-free and O(n) on the already-sorted batches the
// steady-state phase loop re-sorts (a scheduling phase removes tasks in
// place, preserving order), and — because (key, ID) is a total order with
// unique IDs — produces exactly one permutation, so instability cannot
// perturb the deterministic results.
func sortByKey(tasks []*Task, key func(*Task) int64) {
	if len(tasks) < 2 {
		return
	}
	// The steady-state phase loop re-sorts batches that removals left in
	// order (removeIf preserves the remainder's order), so most calls see
	// already-sorted input: detect that with one scan and skip the key
	// extraction and write-back entirely. Unsorted inputs bail at the first
	// inversion, which for fresh batches is almost immediate.
	pk, pid := key(tasks[0]), tasks[0].ID
	sorted := true
	for _, t := range tasks[1:] {
		k, id := key(t), t.ID
		if k < pk || (k == pk && id < pid) {
			sorted = false
			break
		}
		pk, pid = k, id
	}
	if sorted {
		return
	}
	bp := keyPool.Get().(*[]sortKey)
	ks := *bp
	if cap(ks) < len(tasks) {
		ks = make([]sortKey, len(tasks))
	}
	ks = ks[:len(tasks)]
	for i, t := range tasks {
		ks[i] = sortKey{key: key(t), id: t.ID, t: t}
	}
	slices.SortFunc(ks, func(a, b sortKey) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.id, b.id)
	})
	for i := range ks {
		tasks[i] = ks[i].t
		ks[i].t = nil // don't pin tasks past the sort
	}
	*bp = ks[:0]
	keyPool.Put(bp)
}
