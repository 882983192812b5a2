package task

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"rtsads/internal/simtime"
)

// refSort is the reference order: (key, ID) ascending through a comparator.
func refSort(tasks []*Task, llf bool) {
	slices.SortFunc(tasks, func(a, b *Task) int {
		if c := cmp.Compare(priority(a, llf), priority(b, llf)); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// genTasks draws n tasks with unique IDs starting at base, in ascending,
// descending or shuffled ID order, with deadlines in [0, span) and a share
// of Never deadlines.
func genTasks(r *rand.Rand, n int, base ID, ids string, span int64, never float64) []*Task {
	ts := make([]*Task, n)
	for i := range ts {
		d := simtime.Instant(r.Int64N(span))
		if r.Float64() < never {
			d = simtime.Never
		}
		ts[i] = &Task{ID: base + ID(i), Proc: time.Duration(r.Int64N(int64(time.Millisecond))), Deadline: d}
	}
	switch ids {
	case "descending":
		slices.Reverse(ts)
	case "shuffled":
		r.Shuffle(n, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	}
	return ts
}

// spanExactly makes ts's keys span exactly span under both priorities:
// every task gets a zero Proc, so its latest start is its deadline, and a
// deadline in [0, span], with 0 and span both present once ts has two tasks.
func spanExactly(r *rand.Rand, ts []*Task, span int64) {
	for _, t := range ts {
		t.Proc, t.Deadline = 0, simtime.Instant(r.Int64N(span+1))
	}
	if len(ts) >= 2 {
		i, j := r.IntN(len(ts)), r.IntN(len(ts)-1)
		if j >= i {
			j++
		}
		ts[i].Deadline, ts[j].Deadline = 0, simtime.Instant(span)
	}
}

// Property: sorting a sorted prefix plus an unsorted tail gives the
// reference permutation, on the packed path (ascending tail IDs, narrow
// keys) — by radix for a long run, at a key span on each side of every
// digit boundary the radix passes turn on — and on the comparator path
// (descending or shuffled IDs, or a key span of 2^32 or more), with ties,
// all-equal keys, Never deadlines, negative IDs and prefixes of length 0
// and 1.
func TestSorterMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		base  ID
		ids   string
		span  int64
		never float64
		// exact, when non-negative, replaces span: the keys span exactly it.
		exact int64
	}{
		{"packed", 0, "ascending", int64(500 * time.Millisecond), 0, -1},
		{"equal keys", 0, "ascending", 4, 0, -1},
		{"equal keys descending IDs", 0, "descending", 4, 0, -1},
		{"descending IDs", 0, "descending", int64(time.Second), 0, -1},
		{"shuffled IDs", 0, "shuffled", int64(time.Second), 0, -1},
		{"wide keys", 0, "ascending", 1 << 40, 0, -1},
		{"just wide keys", 0, "ascending", 1<<32 + 1, 0, -1},
		{"never deadlines", 0, "ascending", int64(time.Second), 0.2, -1},
		{"negative IDs", -1 << 20, "ascending", int64(time.Second), 0.05, -1},
		{"negative shuffled IDs", -1 << 20, "shuffled", 16, 0.05, -1},
		{"all-equal keys", 0, "ascending", 0, 0, 0},
		{"span 255", 0, "ascending", 0, 0, 255},
		{"span 256", 0, "ascending", 0, 0, 256},
		{"span 2^16-1", 0, "ascending", 0, 0, 1<<16 - 1},
		{"span 2^16", 0, "ascending", 0, 0, 1 << 16},
		{"span 2^24", 0, "ascending", 0, 0, 1 << 24},
		{"span 2^32-1", 0, "ascending", 0, 0, 1<<32 - 1},
		{"span 2^32-1 shuffled IDs", 0, "shuffled", 0, 0, 1<<32 - 1},
	}
	r := rand.New(rand.NewPCG(1, 2))
	var s Sorter // one warm Sorter across every case exercises scratch reuse
	for _, c := range cases {
		for _, llf := range []bool{false, true} {
			for trial := 0; trial < 40; trial++ {
				n := r.IntN(300)
				var p int
				switch trial % 4 {
				case 0:
					p = 0
				case 1:
					p = min(1, n)
				default:
					p = r.IntN(n + 1)
				}
				// The prefix is what an earlier sort left; the tail arrived
				// since, in generation order.
				var tasks []*Task
				if c.exact >= 0 {
					tasks = genTasks(r, n, c.base, c.ids, 1, 0)
					spanExactly(r, tasks, c.exact)
				} else {
					tasks = genTasks(r, n, c.base, c.ids, c.span, c.never)
				}
				refSort(tasks[:p], llf)
				want := slices.Clone(tasks)
				refSort(want, llf)
				if llf {
					s.LLF(tasks)
				} else {
					s.EDF(tasks)
				}
				if !slices.Equal(tasks, want) {
					t.Fatalf("%s llf=%v n=%d prefix=%d: order differs from the reference", c.name, llf, n, p)
				}
			}
		}
	}
}

// batchModel is the naive reference for Batch's removals: filters over a
// plain slice. Its purge tests every task, so a Batch that skips a scan it
// need not make, or reads only part of its prefix, must still agree.
type batchModel struct {
	tasks []*Task
}

func (m *batchModel) add(ts ...*Task) {
	m.tasks = append(m.tasks, ts...)
}

func (m *batchModel) purge(now simtime.Instant) (removed []*Task) {
	var keep []*Task
	for _, t := range m.tasks {
		if t.Missed(now) {
			removed = append(removed, t)
		} else {
			keep = append(keep, t)
		}
	}
	m.tasks = keep
	return removed
}

func (m *batchModel) remove(scheduled []*Task) int {
	ids := map[ID]bool{}
	for _, t := range scheduled {
		ids[t.ID] = true
	}
	var keep []*Task
	for _, t := range m.tasks {
		if !ids[t.ID] {
			keep = append(keep, t)
		}
	}
	n := len(m.tasks) - len(keep)
	m.tasks = keep
	return n
}

// checkKeys fails unless every key beside a task is what the task gives
// under the batch's order, the prefix the batch calls sorted is in that
// order, and the horizon is a lower bound on every latest start.
func checkKeys(t *testing.T, b *Batch, at string) {
	t.Helper()
	if len(b.prio) != len(b.tasks) || len(b.late) != len(b.tasks) || b.sorted > len(b.tasks) {
		t.Fatalf("%s: %d+%d keys and a sorted prefix of %d beside %d tasks", at, len(b.prio), len(b.late), b.sorted, len(b.tasks))
	}
	llf := b.order == LLF
	for i, tk := range b.tasks {
		if b.prio[i] != priority(tk, llf) || b.late[i] != tk.LatestStart() {
			t.Fatalf("%s: task %v at %d has keys %d, %d, want %d, %d", at, tk, i, b.prio[i], b.late[i], priority(tk, llf), tk.LatestStart())
		}
		if tk.LatestStart() < b.horizon {
			t.Fatalf("%s: horizon %d above task %v's latest start", at, b.horizon, tk)
		}
	}
	if !slices.IsSortedFunc(b.tasks[:b.sorted], func(x, y *Task) int {
		return cmp.Or(cmp.Compare(priority(x, llf), priority(y, llf)), cmp.Compare(x.ID, y.ID))
	}) {
		t.Fatalf("%s: the sorted prefix of %d is out of order", at, b.sorted)
	}
}

// edgeTask gives t a Proc or a deadline from the edge values (room_test.go):
// negative and MaxInt64 Proc, MinInt64 and Never deadlines, and pairs whose
// latest start d - p wraps.
func edgeTask(r *rand.Rand, t *Task) {
	switch r.IntN(3) {
	case 0:
		t.Proc = edgeDurations[r.IntN(len(edgeDurations))]
	case 1:
		t.Deadline = edgeInstants[r.IntN(len(edgeInstants))]
	default:
		t.Proc = edgeDurations[r.IntN(len(edgeDurations))]
		t.Deadline = edgeInstants[r.IntN(len(edgeInstants))]
	}
}

// Property: phase after phase of arrivals, an order, a purge and a removal,
// the batch matches the naive model: the remaining tasks and their order,
// the purged tasks and their order, and the removal count; and after every
// step each key matches its task (checkKeys). Schedules come in batch order
// (RT-SADS), in shuffled order (D-COLS's sequence order) and with tasks
// that are not in the batch, under EDF and LLF, and some trials switch the
// order midway. Some phases skip the order, so out-of-order arrivals pile up
// behind the sorted prefix and the purge sees them there. A share of the
// arrivals carries edge values (edgeTask), and some trials purge at
// now = Never.
func TestBatchRemovalsMatchReference(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		prio := EDF
		if trial%5 == 4 {
			prio = LLF
		}
		b := NewBatch()
		m := &batchModel{}
		var next ID
		now := simtime.Instant(0)
		for phase := 0; phase < 30; phase++ {
			at := fmt.Sprintf("trial %d phase %d", trial, phase)
			arrivals := genTasks(r, r.IntN(40), next, "ascending", int64(200*time.Millisecond), 0.02)
			next += ID(len(arrivals))
			for _, a := range arrivals {
				a.Deadline = a.Deadline.Add(time.Duration(now))
				if r.IntN(20) == 0 {
					edgeTask(r, a)
				}
			}
			b.Add(arrivals...)
			m.add(arrivals...)
			checkKeys(t, b, at+" add")
			if trial%9 == 8 && phase == 15 {
				prio = 1 - prio
			}
			if phase%4 != 3 {
				b.Order(prio)
				refSort(m.tasks, prio == LLF)
				checkKeys(t, b, at+" order")
				if b.sorted != b.Len() {
					t.Fatalf("%s: ordered batch has a sorted prefix of %d of %d", at, b.sorted, b.Len())
				}
			}

			now = now.Add(time.Duration(r.Int64N(int64(20 * time.Millisecond))))
			if trial%7 == 6 && phase == 25 {
				now = simtime.Never // the last phases purge at Never
			}
			got, want := b.PurgeMissed(now), m.purge(now)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: purged %v, want %v", at, got, want)
			}
			checkKeys(t, b, at+" purge")

			var scheduled []*Task
			for _, tk := range b.Tasks() {
				if r.IntN(8) == 0 {
					scheduled = append(scheduled, tk)
				}
			}
			switch phase % 3 {
			case 1:
				r.Shuffle(len(scheduled), func(i, j int) { scheduled[i], scheduled[j] = scheduled[j], scheduled[i] })
			case 2:
				foreign := &Task{ID: -1 - ID(phase), Deadline: simtime.Instant(r.Int64N(int64(time.Second)))}
				at := r.IntN(len(scheduled) + 1)
				scheduled = slices.Insert(scheduled, at, foreign)
			}
			if gotN, wantN := b.RemoveScheduled(scheduled), m.remove(scheduled); gotN != wantN {
				t.Fatalf("%s: removed %d, want %d", at, gotN, wantN)
			}
			if !slices.Equal(b.Tasks(), m.tasks) {
				t.Fatalf("%s: batch %v, want %v", at, b.Tasks(), m.tasks)
			}
			checkKeys(t, b, at+" remove")
			wantLS := simtime.Never
			for _, tk := range m.tasks {
				wantLS = wantLS.Min(tk.LatestStart())
			}
			if got := b.LatestStart(); got != wantLS {
				t.Fatalf("%s: LatestStart %d, want %d", at, got, wantLS)
			}
		}
	}
}

// A warm Sorter sorts a 250-task tail into a sorted prefix, and a fresh
// 1000-task burst, without allocating, on both the packed and the
// comparator path; a warm batch purges and removes an out-of-order schedule
// without allocating.
func TestWarmBatchBookkeepingAllocs(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for _, ids := range []string{"ascending", "descending"} {
		for _, c := range []struct{ prefix, tail int }{{690, 250}, {0, 1000}} {
			base := genTasks(r, c.prefix+c.tail, 0, ids, int64(time.Second), 0)
			refSort(base[:c.prefix], false)
			tasks := make([]*Task, len(base))
			var s Sorter
			if allocs := testing.AllocsPerRun(20, func() {
				copy(tasks, base)
				s.EDF(tasks)
			}); allocs != 0 {
				t.Errorf("%s IDs, %d+%d: a warm Sorter allocated %v times per sort", ids, c.prefix, c.tail, allocs)
			}
		}
	}

	// A fresh burst is ordered whole and purged through its window; the
	// schedule, in sequence order, comes from further back, so the removal
	// re-merges in EDF order; 250 arrivals then merge into the prefix and a
	// later purge reads its window again.
	base := genTasks(r, 940, 0, "ascending", int64(time.Second), 0)
	burst, arrivals := base[:690], base[690:]
	sorted := slices.Clone(burst)
	refSort(sorted, false)
	scheduled := []*Task{sorted[400], sorted[130], sorted[250], sorted[170], sorted[600], sorted[190]}
	now := simtime.Instant(10 * time.Millisecond)
	b := NewBatch()
	var purged, removed int
	if allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		b.Add(burst...)
		b.Order(EDF)
		purged = len(b.PurgeMissed(now))
		removed = b.RemoveScheduled(scheduled)
		b.Add(arrivals...)
		b.Order(EDF)
		purged += len(b.PurgeMissed(2 * now))
	}); allocs != 0 {
		t.Errorf("a warm batch allocated %v times per order, purge and removal", allocs)
	}
	if purged == 0 || removed != len(scheduled) {
		t.Fatalf("purged %d and removed %d of %d scheduled; the test needs both", purged, removed, len(scheduled))
	}
}

// BenchmarkSortEDF prices the two sorts a phase loop sees: a fresh burst of
// 1000 arrivals, and a steady batch of 690 sorted tasks plus 6 arrivals.
func BenchmarkSortEDF(b *testing.B) {
	for _, c := range []struct {
		name         string
		prefix, tail int
	}{{"burst=1000", 0, 1000}, {"steady=690+6", 690, 6}} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(rand.NewPCG(7, 8))
			base := genTasks(r, c.prefix+c.tail, 0, "ascending", int64(time.Second), 0)
			refSort(base[:c.prefix], false)
			tasks := make([]*Task, len(base))
			var s Sorter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(tasks, base)
				s.EDF(tasks)
			}
		})
	}
}

// Property: arrivals handed to Add in ranges of any length, their IDs
// ascending, descending or shuffled across and within ranges, with ties on
// every key, order as the reference sort orders them; a batch whose tail
// was emptied by a removal starts its ID run afresh; and LatestStarts stays
// aligned with Tasks. Add's record of ascending IDs decides the sort path,
// so a wrong record shows as a tie broken by position instead of ID.
func TestBatchRangedAddsMatchReference(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 300; trial++ {
		prio := Priority(trial % 2)
		b, m := NewBatch(), &batchModel{}
		var next ID
		for phase := 0; phase < 8; phase++ {
			ids := []string{"ascending", "descending", "shuffled"}[r.IntN(3)]
			arrivals := genTasks(r, r.IntN(300), next, ids, 8, 0.05)
			next += ID(len(arrivals))
			for len(arrivals) > 0 {
				n := 1 + r.IntN(len(arrivals))
				b.Add(arrivals[:n]...)
				m.add(arrivals[:n]...)
				arrivals = arrivals[n:]
			}
			if r.IntN(3) == 0 {
				var drop []*Task
				for _, tk := range b.Tasks() {
					if r.IntN(2) == 0 {
						drop = append(drop, tk)
					}
				}
				b.RemoveScheduled(drop)
				m.remove(drop)
			}
			b.Order(prio)
			refSort(m.tasks, prio == LLF)
			if !slices.Equal(b.Tasks(), m.tasks) {
				t.Fatalf("trial %d phase %d (%s IDs): batch order differs from the reference", trial, phase, ids)
			}
			for i, tk := range b.Tasks() {
				if b.LatestStarts()[i] != tk.LatestStart() {
					t.Fatalf("trial %d phase %d: latest start %d beside %v", trial, phase, b.LatestStarts()[i], tk)
				}
			}
		}
	}
}
