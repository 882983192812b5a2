// Package task defines the real-time task model of the paper: aperiodic,
// non-preemptable, independent tasks with arrival times, processing times,
// deadlines and processor affinities, plus the batch bookkeeping used by the
// phase-based schedulers.
package task

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// purgeTest returns t's latest start, meaningful only when t is not missed,
// and whether t is missed at now, with one comparison: for a finite
// deadline and a non-negative Proc whose d - p does not wrap, t is missed
// exactly when now passes d - p. Otherwise Missed's verdict does not depend
// on now: a negative Proc never fits, a d - p that wraps puts the deadline
// before now + p for every now, and a Never deadline is never missed (its
// latest start is Never).
func (t *Task) purgeTest(now simtime.Instant) (simtime.Instant, bool) {
	d, p := t.Deadline, t.Proc
	ls := d - simtime.Instant(p)
	if p < 0 || ls > d {
		return ls, true
	}
	if d == simtime.Never {
		return simtime.Never, false
	}
	return ls, now > ls
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

// Room is Fits solved for se: the largest se for which
// Fits(start, se, margin, deadline) holds, or a negative value when none
// does. It is exact — Fits(start, se, margin, deadline) == (0 <= se && se <=
// Room(start, margin, deadline)) for every value, Never and wrap included —
// so a search that tests many se against one deadline computes the room
// once and compares.
func Room(start simtime.Instant, margin time.Duration, deadline simtime.Instant) time.Duration {
	if margin < 0 || deadline < start {
		return -1 // se + margin < se, or no time left at all
	}
	// The room is the gap less the margin, the gap capped where se + margin
	// would wrap; a Never deadline leaves the whole range.
	gap := time.Duration(math.MaxInt64)
	if deadline != simtime.Never {
		gap = time.Duration(min(uint64(deadline)-uint64(start), math.MaxInt64)) // exact: start <= deadline
	}
	return gap - margin
}

// InRoom reports whether se fits a room from Room: 0 <= se <= room.
func InRoom(se, room time.Duration) bool {
	return se >= 0 && se <= room
}

// String renders a compact description for logs and test failures.
func (t *Task) String() string {
	return fmt.Sprintf("T%d{p=%v d=%s aff=%s}", t.ID, t.Proc, t.Deadline, t.Affinity)
}

// Batch is the mutable working set of tasks the scheduler considers during
// one scheduling phase: Batch(j+1) is formed from Batch(j) by removing the
// tasks scheduled in phase j and the tasks whose deadlines were missed, and
// adding the tasks that arrived during phase j.
//
// Every removal keeps the remaining tasks in order, and a planner sorts the
// batch's own backing array in place, so the next phase sees a sorted prefix
// followed by the arrivals appended since: a Sorter pays for the arrivals
// only, and a removal rewrites nothing before the first slot it removes.
type Batch struct {
	tasks []*Task
	// removed, drop, rest and sorter are scratch space reused across
	// removals, so the steady-state phase loop (purge, plan, remove
	// scheduled) allocates nothing once warm.
	removed []*Task
	drop    map[ID]struct{}
	rest    []*Task
	sorter  Sorter
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
// read-only, apart from reordering it in place (a planner's priority sort);
// it is invalidated by the next mutating call.
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
// deadline at now (p_i + t_c > d_i), in batch order. The returned slice is
// scratch space owned by the batch: it is only valid until the next
// PurgeMissed or RemoveScheduled call.
func (b *Batch) PurgeMissed(now simtime.Instant) []*Task {
	// A task is missed only once now passes its latest start d_i - p_i, so
	// no scan can remove anything before the batch-wide minimum. A
	// zero-valued Batch has horizon 0 and simply always scans.
	removed := b.removed[:0]
	if !now.After(b.horizon) {
		return removed
	}
	// One pass recomputes the horizon over the survivors, testing each task
	// once; slots before the first missed task are only read.
	horizon := simtime.Never
	ts := b.tasks
	keep := 0
	for i, t := range ts {
		ls, missed := t.purgeTest(now)
		if missed {
			removed = append(removed, t)
			continue
		}
		horizon = horizon.Min(ls)
		if keep != i {
			ts[keep] = t
		}
		keep++
	}
	clear(ts[keep:]) // removed tasks are not pinned by the backing array
	b.tasks = ts[:keep]
	b.removed = removed
	b.horizon = horizon
	return removed
}

// RemoveScheduled removes the given tasks from the batch. Tasks scheduled in
// phase j never enter Batch(j+1). It returns the number removed.
func (b *Batch) RemoveScheduled(scheduled []*Task) int {
	if len(scheduled) == 0 {
		return 0
	}
	// RT-SADS's schedules are subsequences of the batch's order — the search
	// assigns tasks in scheduling-priority order over the very pointers the
	// batch holds — so one merge of pointer compares removes them.
	n := b.removeInOrder(scheduled)
	if n == len(scheduled) {
		return n
	}
	// D-COLS's schedule is in sequence order, not batch order: put the rest
	// in EDF order, the batch's order under the default priority, and merge
	// again. Anything still unmatched (another priority order, or a foreign
	// caller) is matched by ID.
	rest := append(b.rest[:0], scheduled[n:]...)
	b.sorter.EDF(rest)
	m := b.removeInOrder(rest)
	n += m
	if m < len(rest) {
		n += b.removeByID(rest[m:])
	}
	clear(rest)
	b.rest = rest[:0]
	return n
}

// removeInOrder removes the longest prefix of scheduled that appears in the
// batch in the same order, matching by pointer, and returns its length. It
// writes nothing before the first removed slot and moves each run of kept
// tasks with one copy; after the last match the rest moves in one copy.
func (b *Batch) removeInOrder(scheduled []*Task) int {
	ts := b.tasks
	keep, next, j := 0, 0, 0 // ts[:keep] is final; ts[next:] is unexamined
	for ; j < len(scheduled); j++ {
		at := next
		for at < len(ts) && ts[at] != scheduled[j] {
			at++
		}
		if at == len(ts) {
			break
		}
		if j == 0 {
			keep = at
		} else {
			keep += copy(ts[keep:], ts[next:at])
		}
		next = at + 1
	}
	if j == 0 {
		return 0
	}
	keep += copy(ts[keep:], ts[next:])
	clear(ts[keep:])
	b.tasks = ts[:keep]
	return j
}

// removeByID removes the given tasks from the batch by ID match, in any
// order — the last fallback behind RemoveScheduled.
func (b *Batch) removeByID(scheduled []*Task) int {
	// Small sets are cheaper to match by linear scan than through a map;
	// large ones reuse the batch's drop set (cleared, not reallocated).
	if len(scheduled) <= 8 {
		return b.removeIf(func(t *Task) bool {
			for _, s := range scheduled {
				if s.ID == t.ID {
					return true
				}
			}
			return false
		})
	}
	if b.drop == nil {
		b.drop = make(map[ID]struct{}, len(scheduled))
	} else {
		clear(b.drop)
	}
	for _, t := range scheduled {
		b.drop[t.ID] = struct{}{}
	}
	return b.removeIf(func(t *Task) bool {
		_, ok := b.drop[t.ID]
		return ok
	})
}

// removeIf removes every task matching pred, preserving the order of the
// remainder, and returns the number removed.
func (b *Batch) removeIf(pred func(*Task) bool) int {
	keep := b.tasks[:0]
	for _, t := range b.tasks {
		if !pred(t) {
			keep = append(keep, t)
		}
	}
	n := len(b.tasks) - len(keep)
	clear(b.tasks[len(keep):]) // removed tasks are not pinned by the backing array
	b.tasks = keep
	return n
}

// SortEDF orders the batch by ascending deadline (earliest deadline first),
// breaking ties by task ID for determinism.
func (b *Batch) SortEDF() {
	b.sorter.EDF(b.tasks)
}

// SortLLF orders the batch by ascending static laxity (deadline minus
// processing time) — least-laxity-first, the classic alternative to EDF for
// the scheduling-priority heuristic. With a common reference time the
// dynamic laxity d - now - p orders identically, so the static key
// suffices.
func (b *Batch) SortLLF() {
	b.sorter.LLF(b.tasks)
}

// SortLLF orders tasks by ascending laxity (Deadline - Proc), breaking ties
// by ID. It allocates its scratch per call; a caller that sorts every phase
// keeps a Sorter instead.
func SortLLF(tasks []*Task) {
	var s Sorter
	s.LLF(tasks)
}

// SortEDF orders tasks by ascending deadline, breaking ties by ID. It
// allocates its scratch per call; a caller that sorts every phase keeps a
// Sorter instead.
func SortEDF(tasks []*Task) {
	var s Sorter
	s.EDF(tasks)
}

// Sorter orders tasks by a scheduling priority, (key, ID) ascending, and
// keeps the scratch that needs, so a warm Sorter sorts without allocating.
// Because (key, ID) is a total order over unique IDs, every sort yields the
// one permutation any correct sort would. A Sorter serves one goroutine at a
// time: each planner owns one next to its other per-phase scratch, since a
// pool's per-P cache misses whenever a live host goroutine wakes on another
// P. The zero value is ready to use.
type Sorter struct {
	packed []uint64  // keys, then (key - min)<<32 | index
	radix  []uint64  // the radix sort's second buffer
	keys   []sortKey // the comparator path
	tail   []*Task   // the arrivals, sorted apart before the merge
}

// sortKey carries one task's sort key so the comparator touches only the
// key array, not the tasks behind the pointers.
type sortKey struct {
	key int64
	id  ID
	t   *Task
}

// EDF orders tasks by ascending deadline, breaking ties by ID.
func (s *Sorter) EDF(tasks []*Task) { s.sort(tasks, false) }

// LLF orders tasks by ascending laxity (Deadline - Proc), breaking ties by
// ID.
func (s *Sorter) LLF(tasks []*Task) { s.sort(tasks, true) }

// priority is a task's sort key: its latest start under LLF, its deadline
// under EDF.
func priority(t *Task, llf bool) int64 {
	if llf {
		return int64(t.LatestStart())
	}
	return int64(t.Deadline)
}

// sort orders tasks by (priority, ID). A planner sorts its batch in place
// and removals keep the order, so a phase's batch is a sorted prefix
// followed by the arrivals appended since the last sort: only that tail is
// sorted, then merged into the prefix from the back. A prefix shorter than
// its tail (a fresh burst) is sorted along with it, which costs about the
// same and needs no copy of the tail.
func (s *Sorter) sort(tasks []*Task, llf bool) {
	p := sortedPrefix(tasks, llf)
	if p == len(tasks) {
		return
	}
	if p < len(tasks)-p {
		s.sortRun(tasks, llf)
		return
	}
	tail := append(s.tail[:0], tasks[p:]...)
	s.sortRun(tail, llf)
	// Merge from the back: each tail task, largest first, lands after every
	// prefix task that orders above it, so only the prefix entries that
	// move are written.
	i, k := p-1, len(tasks)-1
	for j := len(tail) - 1; j >= 0; j-- {
		t := tail[j]
		key, id := priority(t, llf), t.ID
		for ; i >= 0; i-- {
			u := tasks[i]
			if uk := priority(u, llf); uk < key || uk == key && u.ID < id {
				break
			}
			tasks[k] = u
			k--
		}
		tasks[k] = t
		k--
	}
	clear(tail) // the scratch does not pin tasks past the sort
	s.tail = tail[:0]
}

// sortedPrefix returns the length of the longest prefix of tasks already in
// (priority, ID) order.
func sortedPrefix(tasks []*Task, llf bool) int {
	if len(tasks) == 0 {
		return 0
	}
	pk, pid := priority(tasks[0], llf), tasks[0].ID
	for i := 1; i < len(tasks); i++ {
		t := tasks[i]
		k := priority(t, llf)
		if k < pk || k == pk && t.ID < pid {
			return i
		}
		pk, pid = k, t.ID
	}
	return len(tasks)
}

// sortRun sorts ts in place by (priority, ID). Arrivals are appended in
// arrival order and generated IDs follow it, so a run's IDs usually ascend:
// then an index orders ties as the ID would, and when the keys also span
// less than 2^32 the sort runs over packed (key - min)<<32 | index words
// with no comparator — a radix sort over the key half once the run is long
// enough to pay for its counting passes. Otherwise it compares (key, ID)
// pairs.
func (s *Sorter) sortRun(ts []*Task, llf bool) {
	packed := slices.Grow(s.packed[:0], len(ts)) // one exact allocation, not doublings
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	ascending := uint64(len(ts)) <= math.MaxUint32 // the index fits its half
	for i, t := range ts {
		k := priority(t, llf)
		packed = append(packed, uint64(k))
		lo, hi = min(lo, k), max(hi, k)
		if i > 0 && t.ID <= ts[i-1].ID {
			ascending = false
		}
	}
	s.packed = packed
	if !ascending || uint64(hi)-uint64(lo) >= 1<<32 {
		keys := slices.Grow(s.keys[:0], len(ts))
		for i, t := range ts {
			keys = append(keys, sortKey{key: int64(packed[i]), id: t.ID, t: t})
		}
		slices.SortFunc(keys, func(a, b sortKey) int {
			if a.key != b.key {
				return cmp.Compare(a.key, b.key)
			}
			return cmp.Compare(a.id, b.id)
		})
		for i := range keys {
			ts[i] = keys[i].t
		}
		clear(keys)
		s.keys = keys[:0]
		return
	}
	for i, k := range packed {
		packed[i] = (k-uint64(lo))<<32 | uint64(i)
	}
	words := packed
	if len(packed) < radixMin {
		slices.Sort(packed)
	} else {
		s.radix = slices.Grow(s.radix[:0], len(packed))[:len(packed)]
		words = radixSort(packed, s.radix, uint64(hi)-uint64(lo))
	}
	// Apply the permutation in place, one cycle at a time: slot k takes the
	// task from the slot its word names, and a word that names its own slot
	// marks the slot done.
	for j := range ts {
		if int(uint32(words[j])) == j {
			continue
		}
		first, k := ts[j], j
		for {
			from := int(uint32(words[k]))
			words[k] = uint64(k)
			if from == j {
				ts[k] = first
				break
			}
			ts[k] = ts[from]
			k = from
		}
	}
}

// radixMin is the shortest run the radix sort takes: below it, clearing and
// summing the byte counters costs more than comparing.
const radixMin = 128

// radixSort orders packed (key<<32 | index) words whose keys are at most
// span, and returns the buffer that holds the result: packed or buf, which
// must be as long. It is an LSD radix over the key half: one pass counts
// every byte, then one stable scatter per byte the span has, skipping a
// byte every word shares. The index halves start ascending, so equal keys
// keep their index order and the result is the words' ascending order, as a
// comparison sort gives.
func radixSort(packed, buf []uint64, span uint64) []uint64 {
	var count [4][256]uint32
	for _, w := range packed {
		count[0][byte(w>>32)]++
		count[1][byte(w>>40)]++
		count[2][byte(w>>48)]++
		count[3][byte(w>>56)]++
	}
	src, dst := packed, buf
	for d := 0; span > 0; d, span = d+1, span>>8 {
		c, shift := &count[d], 32+8*d
		if c[byte(src[0]>>shift)] == uint32(len(src)) {
			continue
		}
		var sum uint32
		for i := range c {
			c[i], sum = sum, sum+c[i]
		}
		for _, w := range src {
			b := byte(w >> shift)
			dst[c[b]] = w
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}
