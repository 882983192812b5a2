package search_test

// Differential tests pinning the delta-vertex engine against reference
// semantics: a test-local representation that carries its full per-vertex
// state (the pre-refactor layout — a loads slice, and for the
// sequence-oriented space the used-task set) and recomputes CE by an O(P)
// rescan must drive the engine through the identical traversal — same
// schedule, same stats — as the delta representation reading the engine's
// incrementally maintained PathState.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"rtsads/internal/represent"
	"rtsads/internal/search"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// fig5Problem builds a search problem over one seeded Fig-5-style batch:
// the paper's workload generator, EDF order, zero base loads.
func fig5Problem(tb testing.TB, workers, txns int, seed uint64, vertexCost time.Duration) *search.Problem {
	tb.Helper()
	p := workload.DefaultParams(workers)
	p.Seed = seed
	if txns > 0 {
		p.NumTransactions = txns
	}
	w, err := workload.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	batch := append([]*task.Task(nil), w.Tasks...)
	task.SortEDF(batch)
	cost := w.Cost
	return &search.Problem{
		Now:        0,
		Quantum:    500 * time.Microsecond,
		Tasks:      batch,
		Workers:    workers,
		BaseLoad:   make([]time.Duration, workers),
		Comm:       func(t *task.Task, proc int) time.Duration { return cost.Cost(t.Affinity, proc) },
		VertexCost: vertexCost,
	}
}

// fullCopyAssignment is the pre-refactor assignment-oriented representation:
// every vertex carries a full copy of the per-worker loads (kept in a side
// map, since the engine's Vertex no longer has the field) and CE is
// recomputed from the whole array. It mirrors the delta representation's
// expansion order and quantum charging exactly, so any divergence isolates
// the delta state reconstruction.
//
// Its zero-valued options are the paper's representation; the bound cases
// set them to mirror an Assignment with SkipInfeasible off, a Breadth cap
// or the SumCost model. ruledOut counts the tasks whose every probe failed
// because the least-loaded worker alone overflows the task's room — the
// probes the delta representation's least-load bound skips.
type fullCopyAssignment struct {
	loads map[*search.Vertex][]time.Duration

	noSkip   bool
	breadth  int
	sum      bool
	ruledOut int
}

// model is the reference's cost model.
func (f *fullCopyAssignment) model() search.CostModel {
	if f.sum {
		return search.SumCost{}
	}
	return search.MaxCost{}
}

func newFullCopy() *fullCopyAssignment {
	return &fullCopyAssignment{loads: make(map[*search.Vertex][]time.Duration)}
}

func (f *fullCopyAssignment) Name() string { return "assignment-full-copy" }

func (f *fullCopyAssignment) Root(p *search.Problem) *search.Vertex {
	loads := search.RootLoads(p, nil)
	v := search.NewRoot(p, f.model())
	f.loads[v] = loads
	return v
}

func (f *fullCopyAssignment) IsLeaf(p *search.Problem, v *search.Vertex) bool {
	return v.Cursor >= len(p.Tasks)
}

func (f *fullCopyAssignment) Expand(p *search.Problem, v *search.Vertex, st *search.PathState) ([]*search.Vertex, int) {
	loads := f.loads[v]
	generated := 0
	for i := v.Cursor; i < len(p.Tasks); i++ {
		t := p.Tasks[i]
		if p.Hopeless(t) {
			generated++
			if f.noSkip {
				break
			}
			continue
		}
		var succs []*search.Vertex
		if _, ok := p.Feasible(t, slices.Min(loads), 0); !ok {
			f.ruledOut++
		}
		for k := 0; k < p.Workers; k++ {
			comm := p.Comm(t, k)
			end, ok := p.Feasible(t, loads[k], comm)
			if !ok {
				continue
			}
			nl := make([]time.Duration, len(loads))
			copy(nl, loads)
			nl[k] = end
			sv := st.NewVertex()
			*sv = search.Vertex{
				Parent:       v,
				Assign:       search.Assignment{Task: t, TaskIndex: i, Proc: k, Comm: comm, EndOffset: end},
				IsAssignment: true,
				Depth:        v.Depth + 1,
				Cursor:       i + 1,
				CE:           f.model().FromLoads(nl),
			}
			f.loads[sv] = nl
			succs = append(succs, sv)
		}
		generated += p.Workers
		if len(succs) > 0 {
			sort.Slice(succs, func(i, j int) bool {
				a, b := succs[i], succs[j]
				if a.CE != b.CE {
					return a.CE < b.CE
				}
				if a.Assign.EndOffset != b.Assign.EndOffset {
					return a.Assign.EndOffset < b.Assign.EndOffset
				}
				return a.Assign.Proc < b.Assign.Proc
			})
			if f.breadth > 0 && len(succs) > f.breadth {
				succs = succs[:f.breadth]
			}
			return succs, generated
		}
		if f.noSkip {
			break
		}
	}
	return nil, generated
}

// schedKey flattens a schedule for comparison.
type schedKey struct {
	Task task.ID
	Proc int
	End  time.Duration
}

func flatten(s []search.Assignment) []schedKey {
	out := make([]schedKey, len(s))
	for i, a := range s {
		out[i] = schedKey{Task: a.Task.ID, Proc: a.Proc, End: a.EndOffset}
	}
	return out
}

// fullCopySequence is the same reference for the sequence-oriented space
// (represent.NewSequence: round-robin processor, breadth cap = workers):
// every vertex carries its own loads and used-task set, so Expand never
// reads the engine's PathState — a wrong Used bitset or load after a
// backtrack rebuild shows up as a diverging traversal.
//
// Its zero-valued options are NewSequence's; the room-cut cases set them to
// mirror a Sequence with a Breadth cap (breadth, zero meaning Workers),
// LeastLoaded, AllowIdle or the SumCost model. It probes every unscheduled
// task; ruledOut counts the failed probes that a zero c_lk would also have
// failed — the probes the delta representation's room cut skips.
type fullCopySequence struct {
	loads map[*search.Vertex][]time.Duration
	used  map[*search.Vertex][]bool

	breadth     int
	leastLoaded bool
	allowIdle   bool
	sum         bool
	ruledOut    int
}

func newFullCopySequence() *fullCopySequence {
	return &fullCopySequence{
		loads: make(map[*search.Vertex][]time.Duration),
		used:  make(map[*search.Vertex][]bool),
	}
}

// model is the reference's cost model.
func (f *fullCopySequence) model() search.CostModel {
	if f.sum {
		return search.SumCost{}
	}
	return search.MaxCost{}
}

func (f *fullCopySequence) Name() string { return "sequence-full-copy" }

func (f *fullCopySequence) Root(p *search.Problem) *search.Vertex {
	loads := search.RootLoads(p, nil)
	v := search.NewRoot(p, f.model())
	f.loads[v] = loads
	f.used[v] = make([]bool, len(p.Tasks))
	return v
}

func (f *fullCopySequence) IsLeaf(p *search.Problem, v *search.Vertex) bool {
	return v.Depth >= len(p.Tasks)
}

func (f *fullCopySequence) Expand(p *search.Problem, v *search.Vertex, st *search.PathState) ([]*search.Vertex, int) {
	loads, used := f.loads[v], f.used[v]
	proc := v.Cursor % p.Workers
	if f.leastLoaded {
		proc = 0
		for k, l := range loads {
			if l < loads[proc] {
				proc = k
			}
		}
	}
	breadth := f.breadth
	if breadth == 0 {
		breadth = p.Workers
	}
	generated := 0
	var succs []*search.Vertex
	for i, t := range p.Tasks {
		if used[i] {
			continue
		}
		generated++
		comm := p.Comm(t, proc)
		end, ok := p.Feasible(t, loads[proc], comm)
		if !ok {
			if _, fits := p.Feasible(t, loads[proc], 0); !fits {
				f.ruledOut++
			}
			continue
		}
		nl := append([]time.Duration(nil), loads...)
		nl[proc] = end
		nu := append([]bool(nil), used...)
		nu[i] = true
		sv := st.NewVertex()
		*sv = search.Vertex{
			Parent:       v,
			Assign:       search.Assignment{Task: t, TaskIndex: i, Proc: proc, Comm: comm, EndOffset: end},
			IsAssignment: true,
			Depth:        v.Depth + 1,
			Cursor:       v.Cursor + 1,
			CE:           f.model().FromLoads(nl),
		}
		f.loads[sv], f.used[sv] = nl, nu
		succs = append(succs, sv)
		if len(succs) >= breadth {
			break
		}
	}
	if f.allowIdle {
		// At most Workers idle levels in a row, as Sequence's canIdle.
		skips := 0
		for cur := v; cur != nil && !cur.IsAssignment && cur.Parent != nil; cur = cur.Parent {
			skips++
		}
		if skips < p.Workers {
			sv := st.NewVertex()
			*sv = search.Vertex{Parent: v, Depth: v.Depth, Cursor: v.Cursor + 1, CE: v.CE}
			f.loads[sv], f.used[sv] = loads, used
			succs = append(succs, sv)
			generated++
		}
	}
	return succs, generated
}

func TestDeltaMatchesFullCopyReference(t *testing.T) {
	type refCase struct {
		name          string
		workers, txns int
		seed          uint64
		vc            time.Duration
		sequence      bool
	}
	var cases []refCase
	for _, workers := range []int{4, 10} {
		for _, vc := range []time.Duration{time.Microsecond, time.Nanosecond} {
			for seed := uint64(1); seed <= 5; seed++ {
				cases = append(cases, refCase{"batch", workers, 80, seed, vc, false})
			}
		}
	}
	// The cliff-edge dive (BenchmarkSearchCore/full-dive): tree-bound, the
	// first feasible schedule sits behind >1000 backtracks.
	cases = append(cases, refCase{"dive", 10, 170, 6, time.Nanosecond, false})
	// 1µs/vertex over a 120-task batch blows the 500µs quantum mid-tree.
	for seed := uint64(1); seed <= 10; seed++ {
		cases = append(cases, refCase{"expiring", 10, 120, seed, time.Microsecond, false})
	}
	cases = append(cases, refCase{"sequence", 4, 40, 3, time.Nanosecond, true})

	expired := 0
	for _, c := range cases {
		var deltaRep, fullRep search.Representation = represent.NewAssignment(), newFullCopy()
		if c.sequence {
			deltaRep, fullRep = represent.NewSequence(c.workers), newFullCopySequence()
		}
		p1 := fig5Problem(t, c.workers, c.txns, c.seed, c.vc)
		p2 := fig5Problem(t, c.workers, c.txns, c.seed, c.vc)
		delta, err := search.Run(p1, deltaRep)
		if err != nil {
			t.Fatal(err)
		}
		full, err := search.Run(p2, fullRep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flatten(delta.Schedule()), flatten(full.Schedule())) {
			t.Fatalf("%+v: delta and full-copy schedules differ:\n%v\nvs\n%v",
				c, flatten(delta.Schedule()), flatten(full.Schedule()))
		}
		// Stats is comparable and includes Consumed: equal iff every
		// counter and flag is.
		if delta.Stats != full.Stats {
			t.Fatalf("%+v: stats differ: %+v vs %+v", c, delta.Stats, full.Stats)
		}
		// The delta engine must reproduce the loads the full-copy
		// vertices carried.
		if got, want := delta.Loads(p1), search.PathLoads(p2, full.Best); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: best loads differ: %v vs %v", c, got, want)
		}
		switch c.name {
		case "dive":
			if !delta.Stats.Leaf || delta.Stats.Backtracks <= 1000 {
				t.Fatalf("dive fixture must complete after >1000 backtracks: %+v", delta.Stats)
			}
		case "expiring":
			if delta.Stats.Expired {
				expired++
			}
		}
	}
	if expired == 0 {
		t.Fatal("no expiring fixture expired; the quantum-truncation path is not exercised")
	}
}

// TestLeastLoadBoundMatchesFullCopyReference pins the assignment
// representation's least-load bound — a task whose p_l on the least-loaded
// worker already overflows its room is ruled out unprobed, yet charged
// Workers candidates — against the full-copy reference, which probes every
// worker. Non-zero base loads, dead (search.Unreachable) workers and a
// margin make the bound fire; each case runs with the paper's options and
// with SkipInfeasible off, a Breadth cap and SumCost, and must match the
// reference's schedule, loads and every Stats field, Generated included.
func TestLeastLoadBoundMatchesFullCopyReference(t *testing.T) {
	const ms = time.Millisecond
	type option struct {
		name string
		rep  *represent.Assignment
		ref  fullCopyAssignment
	}
	options := []option{
		{"paper", &represent.Assignment{SkipInfeasible: true}, fullCopyAssignment{}},
		{"no-skip", &represent.Assignment{}, fullCopyAssignment{noSkip: true}},
		{"breadth", &represent.Assignment{SkipInfeasible: true, Breadth: 2}, fullCopyAssignment{breadth: 2}},
		{"sum", &represent.Assignment{SkipInfeasible: true, Cost: search.SumCost{}}, fullCopyAssignment{sum: true}},
	}
	bases := []struct {
		name string
		load func(k int) time.Duration
	}{
		{"busy", func(k int) time.Duration { return time.Duration(k+1) * 3 * ms }},
		{"dead", func(k int) time.Duration {
			if k%3 == 0 {
				return search.Unreachable
			}
			return time.Duration(k) * 2 * ms
		}},
		{"all-dead", func(int) time.Duration { return search.Unreachable }},
	}
	ruledOut, cases := 0, 0
	for _, base := range bases {
		for _, margin := range []time.Duration{0, time.Microsecond, 25 * time.Microsecond} {
			for _, o := range options {
				for seed := uint64(1); seed <= 3; seed++ {
					for _, vc := range []time.Duration{time.Microsecond, time.Nanosecond} {
						problem := func() *search.Problem {
							p := fig5Problem(t, 10, 120, seed, vc)
							for k := range p.BaseLoad {
								p.BaseLoad[k] = base.load(k)
							}
							p.Margin = margin
							return p
						}
						p1, p2 := problem(), problem()
						ref := o.ref
						ref.loads = make(map[*search.Vertex][]time.Duration)
						delta, err := search.Run(p1, o.rep)
						if err != nil {
							t.Fatal(err)
						}
						full, err := search.Run(p2, &ref)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s/margin=%v/%s/seed=%d/vc=%v", base.name, margin, o.name, seed, vc)
						if !reflect.DeepEqual(flatten(delta.Schedule()), flatten(full.Schedule())) {
							t.Fatalf("%s: schedules differ:\n%v\nvs\n%v", name,
								flatten(delta.Schedule()), flatten(full.Schedule()))
						}
						if delta.Stats != full.Stats {
							t.Fatalf("%s: stats differ: %+v vs %+v", name, delta.Stats, full.Stats)
						}
						if got, want := delta.Loads(p1), search.PathLoads(p2, full.Best); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: best loads differ: %v vs %v", name, got, want)
						}
						ruledOut += ref.ruledOut
						cases++
					}
				}
			}
		}
	}
	if ruledOut < cases {
		t.Fatalf("the least-load bound fired %d times over %d cases; the fixtures do not exercise it", ruledOut, cases)
	}
}

// TestSequenceRoomCutMatchesFullCopyReference pins the sequence
// representation's room cut — a task whose p_l on top of the level's load
// already overflows its room is ruled out unprobed, yet charged — against
// the full-copy reference, which probes every task. Busy, dead
// (search.Unreachable) and exactly-full workers and a margin make the cut
// fire; each case runs round-robin, LeastLoaded, AllowIdle, a Breadth cap
// of 2 and SumCost, and must match the reference's schedule, loads and
// every Stats field, and the cut must fire in every case. The exact base
// fills worker 0 so that a task fits it with no room to spare: a cut one
// comparison too eager drops that task.
func TestSequenceRoomCutMatchesFullCopyReference(t *testing.T) {
	const ms = time.Millisecond
	const workers = 10
	type option struct {
		name string
		rep  *represent.Sequence
		ref  fullCopySequence
	}
	options := []option{
		{"round-robin", represent.NewSequence(workers), fullCopySequence{}},
		{"least-loaded", &represent.Sequence{Breadth: workers, LeastLoaded: true}, fullCopySequence{leastLoaded: true}},
		{"idle", &represent.Sequence{Breadth: workers, AllowIdle: true}, fullCopySequence{allowIdle: true}},
		{"breadth", &represent.Sequence{Breadth: 2}, fullCopySequence{breadth: 2}},
		{"sum", &represent.Sequence{Breadth: workers, Cost: search.SumCost{}}, fullCopySequence{sum: true}},
	}
	bases := []struct {
		name string
		load func(p *search.Problem, k int) time.Duration
	}{
		{"busy", func(_ *search.Problem, k int) time.Duration { return time.Duration(k+1) * 3 * ms }},
		{"dead", func(_ *search.Problem, k int) time.Duration {
			if k%3 == 0 {
				return search.Unreachable
			}
			return time.Duration(k) * 2 * ms
		}},
		{"exact", func(p *search.Problem, k int) time.Duration {
			if k != 0 {
				return time.Duration(k) * ms
			}
			for _, tk := range p.Tasks {
				if p.Comm(tk, 0) == 0 && p.Room(tk) >= tk.Proc {
					return p.Quantum + p.Room(tk) - tk.Proc // its root load leaves tk exactly its room
				}
			}
			t.Fatal("no task fits worker 0 with no communication cost")
			return 0
		}},
	}
	for _, base := range bases {
		for _, margin := range []time.Duration{0, time.Microsecond, 25 * time.Microsecond} {
			for _, o := range options {
				for seed := uint64(1); seed <= 3; seed++ {
					for _, vc := range []time.Duration{time.Microsecond, 20 * time.Nanosecond} {
						problem := func() *search.Problem {
							p := fig5Problem(t, workers, 120, seed, vc)
							p.Margin = margin
							for k := range p.BaseLoad {
								p.BaseLoad[k] = base.load(p, k)
							}
							return p
						}
						p1, p2 := problem(), problem()
						ref := o.ref
						ref.loads = make(map[*search.Vertex][]time.Duration)
						ref.used = make(map[*search.Vertex][]bool)
						delta, err := search.Run(p1, o.rep)
						if err != nil {
							t.Fatal(err)
						}
						full, err := search.Run(p2, &ref)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s/margin=%v/%s/seed=%d/vc=%v", base.name, margin, o.name, seed, vc)
						if !reflect.DeepEqual(flatten(delta.Schedule()), flatten(full.Schedule())) {
							t.Fatalf("%s: schedules differ:\n%v\nvs\n%v", name,
								flatten(delta.Schedule()), flatten(full.Schedule()))
						}
						if delta.Stats != full.Stats {
							t.Fatalf("%s: stats differ: %+v vs %+v", name, delta.Stats, full.Stats)
						}
						if got, want := delta.Loads(p1), search.PathLoads(p2, full.Best); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: best loads differ: %v vs %v", name, got, want)
						}
						if ref.ruledOut == 0 {
							t.Fatalf("%s: the room cut never fired; the fixture does not exercise it", name)
						}
					}
				}
			}
		}
	}
}
