package search_test

// Differential tests pinning the delta-vertex engine against reference
// semantics: a test-local representation that carries its full per-vertex
// state (the pre-refactor layout — a loads slice, and for the
// sequence-oriented space the used-task set) and recomputes CE by an O(P)
// rescan must drive the engine through the identical traversal — same
// schedule, same stats — as the delta representation reading the engine's
// incrementally maintained PathState.

import (
	"reflect"
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
type fullCopyAssignment struct {
	loads map[*search.Vertex][]time.Duration
}

func newFullCopy() *fullCopyAssignment {
	return &fullCopyAssignment{loads: make(map[*search.Vertex][]time.Duration)}
}

func (f *fullCopyAssignment) Name() string { return "assignment-full-copy" }

func (f *fullCopyAssignment) Root(p *search.Problem) *search.Vertex {
	loads := search.RootLoads(p, nil)
	v := &search.Vertex{CE: search.MaxCost{}.FromLoads(loads)}
	f.loads[v] = loads
	return v
}

func (f *fullCopyAssignment) IsLeaf(p *search.Problem, v *search.Vertex) bool {
	return v.Cursor >= len(p.Tasks)
}

func (f *fullCopyAssignment) Expand(p *search.Problem, v *search.Vertex, _ *search.PathState) ([]*search.Vertex, int) {
	loads := f.loads[v]
	generated := 0
	for i := v.Cursor; i < len(p.Tasks); i++ {
		t := p.Tasks[i]
		if p.Hopeless(t) {
			generated++
			continue
		}
		var succs []*search.Vertex
		for k := 0; k < p.Workers; k++ {
			comm := p.Comm(t, k)
			end, ok := p.Feasible(t, loads[k], comm)
			if !ok {
				continue
			}
			nl := make([]time.Duration, len(loads))
			copy(nl, loads)
			nl[k] = end
			sv := &search.Vertex{
				Parent:       v,
				Assign:       search.Assignment{Task: t, TaskIndex: i, Proc: k, Comm: comm, EndOffset: end},
				IsAssignment: true,
				Depth:        v.Depth + 1,
				Cursor:       i + 1,
				CE:           search.MaxCost{}.FromLoads(nl),
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
			return succs, generated
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
type fullCopySequence struct {
	loads map[*search.Vertex][]time.Duration
	used  map[*search.Vertex][]bool
}

func newFullCopySequence() *fullCopySequence {
	return &fullCopySequence{
		loads: make(map[*search.Vertex][]time.Duration),
		used:  make(map[*search.Vertex][]bool),
	}
}

func (f *fullCopySequence) Name() string { return "sequence-full-copy" }

func (f *fullCopySequence) Root(p *search.Problem) *search.Vertex {
	loads := search.RootLoads(p, nil)
	v := &search.Vertex{CE: search.MaxCost{}.FromLoads(loads)}
	f.loads[v] = loads
	f.used[v] = make([]bool, len(p.Tasks))
	return v
}

func (f *fullCopySequence) IsLeaf(p *search.Problem, v *search.Vertex) bool {
	return v.Depth >= len(p.Tasks)
}

func (f *fullCopySequence) Expand(p *search.Problem, v *search.Vertex, _ *search.PathState) ([]*search.Vertex, int) {
	loads, used := f.loads[v], f.used[v]
	proc := v.Cursor % p.Workers
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
			continue
		}
		nl := append([]time.Duration(nil), loads...)
		nl[proc] = end
		nu := append([]bool(nil), used...)
		nu[i] = true
		sv := &search.Vertex{
			Parent:       v,
			Assign:       search.Assignment{Task: t, TaskIndex: i, Proc: proc, Comm: comm, EndOffset: end},
			IsAssignment: true,
			Depth:        v.Depth + 1,
			Cursor:       v.Cursor + 1,
			CE:           search.MaxCost{}.FromLoads(nl),
		}
		f.loads[sv], f.used[sv] = nl, nu
		succs = append(succs, sv)
		if len(succs) >= p.Workers {
			break
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
