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
	"sort"
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

// Priority is a scheduling-priority order: tasks ascend by its key, ties
// broken by ID. The zero value is EDF.
type Priority int

const (
	// EDF orders by earliest deadline — the paper's heuristic.
	EDF Priority = iota
	// LLF orders by least laxity, the latest start d - p: the dynamic
	// laxity d - now - p orders identically.
	LLF
)

// String returns the priority order's name.
func (p Priority) String() string {
	switch p {
	case EDF:
		return "edf"
	case LLF:
		return "llf"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Batch is the mutable working set of tasks the scheduler considers during
// one scheduling phase: Batch(j+1) is formed from Batch(j) by removing the
// tasks scheduled in phase j and the tasks whose deadlines were missed, and
// adding the tasks that arrived during phase j.
//
// The batch owns its priority order. Beside each task it keeps the task's
// keys, and it knows how long its sorted prefix is: removals keep the order,
// so Order sorts only the arrivals since the last Order, from their keys.
// The purge reads the keys, not the tasks, and in the sorted prefix only the
// window that can hold a missed task.
type Batch struct {
	tasks []*Task
	keys  []key // keys[i] belongs to tasks[i]
	// tbase and kbase are the arrays tasks and keys view (see close).
	tbase []*Task
	kbase []key
	order Priority
	// sorted is the length of the prefix in order's (key, ID) order.
	sorted int
	// maxProc bounds every Proc added since Reset: under EDF, a task whose
	// deadline is past now + maxProc has d - p > now.
	maxProc time.Duration
	// edge marks a task added since the last purge that is missed at every
	// now (a negative Proc or a d - p that wraps, see purgeTest): it can sit
	// anywhere in the order, so the next purge reads every task.
	edge bool
	// removed, drop, rest and sorter are scratch space reused across
	// phases, so the steady-state phase loop (purge, order, plan, remove
	// scheduled) allocates nothing once warm.
	removed []*Task
	drop    map[ID]struct{}
	rest    []*Task
	sorter  Sorter
	// horizon is a lower bound on the earliest instant any batched task can
	// become missed, min_i(d_i - p_i): while now <= horizon and no edge task
	// waits, PurgeMissed is a comparison instead of a scan.
	horizon simtime.Instant
}

// key is one task's two keys, kept beside it in a Batch: prio orders it
// (its deadline under EDF, its latest start under LLF), and the purge
// removes it once now passes late, its latest start d - p.
type key struct {
	prio int64
	late simtime.Instant
}

// NewBatch returns a batch seeded with the given tasks.
func NewBatch(tasks ...*Task) *Batch {
	b := &Batch{horizon: simtime.Never}
	b.Add(tasks...)
	return b
}

// Reset empties the batch in place, keeping its scratch storage so a pooled
// batch's next fill allocates nothing. Cleared slots are nilled so the old
// run's tasks are not pinned by the backing arrays.
func (b *Batch) Reset() {
	clear(b.tbase)
	b.tasks, b.keys = b.tbase[:0], b.kbase[:0]
	clear(b.removed[:cap(b.removed)])
	b.removed = b.removed[:0]
	b.sorted, b.maxProc, b.edge = 0, 0, false
	b.horizon = simtime.Never
}

// Len returns the number of tasks in the batch.
func (b *Batch) Len() int { return len(b.tasks) }

// Tasks returns the batch's backing slice, in priority order after Order.
// Callers must treat it as read-only; it is invalidated by the next
// mutating call.
func (b *Batch) Tasks() []*Task { return b.tasks }

// LatestStart returns the least latest start d - p in the batch, read from
// the keys (Never when empty): one past it, the first task can be missed.
func (b *Batch) LatestStart() simtime.Instant {
	ls := simtime.Never
	for _, k := range b.keys {
		ls = ls.Min(k.late)
	}
	return ls
}

// Add appends arriving tasks to the batch, after its sorted prefix.
func (b *Batch) Add(tasks ...*Task) {
	if n := len(b.tasks) + len(tasks); n > cap(b.tasks) {
		// Out of room: move the batch to the front of its arrays, grown 4×.
		if n > len(b.tbase) {
			n = max(n, 4*len(b.tbase))
			b.tbase, b.kbase = make([]*Task, n), make([]key, n)
		}
		m := copy(b.tbase, b.tasks)
		copy(b.kbase, b.keys)
		clear(b.tbase[m:])
		b.tasks, b.keys = b.tbase[:m], b.kbase[:m]
	}
	llf := b.order == LLF
	for _, t := range tasks {
		ls, always := t.purgeTest(math.MinInt64) // missed even at the first instant: at every now
		if always {
			ls, b.edge = t.LatestStart(), true
		}
		b.horizon = b.horizon.Min(ls)
		b.maxProc = max(b.maxProc, t.Proc)
		b.keys = append(b.keys, key{prio: priority(t, llf), late: ls})
		b.tasks = append(b.tasks, t)
	}
}

// Order puts the batch in p's order, (key, ID) ascending. Only the tail
// added since the last Order is sorted, from its keys, and merged into the
// prefix from the back; a prefix shorter than its tail (a fresh burst) is
// sorted along with it. A new order re-keys the batch and sorts it whole.
func (b *Batch) Order(p Priority) {
	if p != b.order {
		b.order, b.sorted = p, 0
		for i, t := range b.tasks {
			b.keys[i].prio = priority(t, p == LLF)
		}
	}
	ts, ks, n := b.tasks, b.keys, b.sorted
	b.sorted = len(ts)
	if n == len(ts) {
		return
	}
	s := &b.sorter
	if n < len(ts)-n {
		s.sortKeyed(ts, ks)
		return
	}
	tail, tailKeys := append(s.tail[:0], ts[n:]...), append(s.tailKeys[:0], ks[n:]...)
	s.sortKeyed(tail, tailKeys)
	// Merge from the back: each tail task, largest first, lands after every
	// prefix task that orders above it, so only the prefix entries that
	// move are written, and a prefix ID is read only on a key tie.
	i, k := n-1, len(ts)-1
	for j := len(tail) - 1; j >= 0; j-- {
		t, tk := tail[j], tailKeys[j]
		for ; i >= 0; i-- {
			if uk := ks[i].prio; uk < tk.prio || uk == tk.prio && ts[i].ID < t.ID {
				break
			}
			ts[k], ks[k] = ts[i], ks[i]
			k--
		}
		ts[k], ks[k] = t, tk
		k--
	}
	clear(tail) // the scratch does not pin tasks past the merge
	s.tail, s.tailKeys = tail[:0], tailKeys[:0]
}

// PurgeMissed removes and returns every task that has already missed its
// deadline at now (p_i + t_c > d_i), in batch order. The returned slice is
// scratch space owned by the batch: it is only valid until the next
// PurgeMissed or RemoveScheduled call.
func (b *Batch) PurgeMissed(now simtime.Instant) []*Task {
	b.removed = b.removed[:0]
	if !b.edge && !now.After(b.horizon) {
		return b.removed // no task is missed before now passes its d - p
	}
	// The window: in the sorted prefix only a task keyed at most now + lead
	// can be missed, as under EDF a deadline past now + maxProc leaves
	// d - p > now and under LLF the key is d - p. The rest stays unread; its
	// first key bounds its latest starts. An edge task widens the window.
	lead := b.maxProc
	if b.order == LLF {
		lead = 0
	}
	lim := int64(now.Add(lead))
	end, horizon := b.sorted, simtime.Never
	if !b.edge {
		end = sort.Search(b.sorted, func(i int) bool { return b.keys[i].prio > lim })
		if end < b.sorted {
			horizon = simtime.Instant(b.keys[end].prio) - simtime.Instant(lead)
		}
	}
	last := -1
	for _, r := range [2][2]int{{0, end}, {b.sorted, len(b.tasks)}} {
		for i := r[0]; i < r[1]; i++ {
			ls, missed := b.keys[i].late, now > b.keys[i].late
			if b.edge {
				ls, missed = b.tasks[i].purgeTest(now)
			}
			if !missed {
				horizon = horizon.Min(ls)
				continue
			}
			b.removed = append(b.removed, b.tasks[i])
			b.tasks[i], last = nil, i
		}
	}
	b.horizon, b.edge = horizon, false
	b.close(last)
	return b.removed
}

// close closes the holes (nil tasks) a removal left up to last. Removals
// cluster at the front of the order, so the tasks before last shift right
// and the batch starts that much later in its arrays.
func (b *Batch) close(last int) {
	ts, ks := b.tasks, b.keys
	keep := last + 1
	for i := last; i >= 0; i-- {
		if ts[i] != nil {
			keep--
			ts[keep], ks[keep] = ts[i], ks[i]
		} else if i < b.sorted {
			b.sorted--
		}
	}
	clear(ts[:keep])
	b.tasks, b.keys = ts[keep:], ks[keep:]
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
	// in the batch's order and merge again. Anything still unmatched (a
	// foreign caller's tasks) is matched by ID.
	rest := append(b.rest[:0], scheduled[n:]...)
	b.sorter.sort(rest, b.order == LLF)
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
// batch in the same order, matching by pointer, and returns its length.
func (b *Batch) removeInOrder(scheduled []*Task) int {
	ts := b.tasks
	last, at, j := -1, 0, 0
	for ; j < len(scheduled); j++ {
		for at < len(ts) && ts[at] != scheduled[j] {
			at++
		}
		if at == len(ts) {
			break
		}
		ts[at], last = nil, at
		at++
	}
	b.close(last)
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
	last, n := -1, 0
	for i, t := range b.tasks {
		if pred(t) {
			b.tasks[i], last, n = nil, i, n+1
		}
	}
	b.close(last)
	return n
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
// time; each Batch owns one. The zero value is ready to use.
type Sorter struct {
	keys     []key     // the keys of a bare task slice (EDF, LLF)
	packed   []uint64  // (key - min)<<32 | index words, then the permutation
	radix    []uint64  // the radix sort's second buffer
	cmp      []sortKey // the comparator path
	tail     []*Task   // a batch's arrivals, sorted apart before the merge
	tailKeys []key     // and their keys
}

// sortKey carries one task's sort key and position, so the comparator
// touches only the key array, not the tasks behind the pointers.
type sortKey struct {
	key int64
	id  ID
	at  int
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

// sort keys tasks under the priority and sorts them.
func (s *Sorter) sort(tasks []*Task, llf bool) {
	ks := slices.Grow(s.keys[:0], len(tasks)) // one exact allocation, not doublings
	for _, t := range tasks {
		ks = append(ks, key{prio: priority(t, llf)})
	}
	s.sortKeyed(tasks, ks)
	s.keys = ks[:0]
}

// sortKeyed sorts ts, and ks beside it, by (prio, ID). Arrivals are
// appended in arrival order and generated IDs follow it, so a run's IDs
// usually ascend: then an index orders ties as the ID would, and when the
// keys also span less than 2^32 the sort runs over packed
// (key - min)<<32 | index words with no comparator — a radix sort over the
// key half once the run is long enough to pay for its counting passes.
// Otherwise it compares (key, ID) pairs. Either way the result is a
// permutation, applied to the tasks and the keys together.
func (s *Sorter) sortKeyed(ts []*Task, ks []key) {
	words := slices.Grow(s.packed[:0], len(ts))[:len(ts)]
	s.packed = words[:0]
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	ascending := uint64(len(ts)) <= math.MaxUint32 // the index fits its half
	for i, k := range ks {
		lo, hi = min(lo, k.prio), max(hi, k.prio)
		if i > 0 && ts[i].ID <= ts[i-1].ID {
			ascending = false
		}
	}
	if !ascending || uint64(hi)-uint64(lo) >= 1<<32 {
		c := slices.Grow(s.cmp[:0], len(ts))
		for i, k := range ks {
			c = append(c, sortKey{key: k.prio, id: ts[i].ID, at: i})
		}
		slices.SortFunc(c, func(a, b sortKey) int {
			if a.key != b.key {
				return cmp.Compare(a.key, b.key)
			}
			return cmp.Compare(a.id, b.id)
		})
		for i := range c {
			words[i] = uint64(c[i].at)
		}
		s.cmp = c[:0]
	} else {
		for i, k := range ks {
			words[i] = (uint64(k.prio)-uint64(lo))<<32 | uint64(i)
		}
		if len(words) < radixMin {
			slices.Sort(words)
		} else {
			s.radix = slices.Grow(s.radix[:0], len(words))[:len(words)]
			words = radixSort(words, s.radix, uint64(hi)-uint64(lo))
		}
	}
	// Apply the permutation in place, one cycle at a time: slot k takes the
	// entry from the slot its word names, and a word that names its own
	// slot marks the slot done.
	for j := range ts {
		if int(uint32(words[j])) == j {
			continue
		}
		first, firstKey, k := ts[j], ks[j], j
		for {
			from := int(uint32(words[k]))
			words[k] = uint64(k)
			if from == j {
				ts[k], ks[k] = first, firstKey
				break
			}
			ts[k], ks[k] = ts[from], ks[from]
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
