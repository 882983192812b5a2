package search_test

// The vertex-lifetime test pins the engine's recycling rule: a depth-first
// search frees every vertex it backtracks out of and, at the end of the run,
// everything but Best's path, while Best's path itself survives until
// Release, neither freed nor reused.

import (
	"testing"
	"time"
	"unsafe"

	"rtsads/internal/represent"
	"rtsads/internal/search"
)

// snapshot is what a vertex held when its representation created it.
type snapshot struct {
	parent       *search.Vertex
	assign       search.Assignment
	isAssignment bool
	depth        int
	cursor       int
	ce           time.Duration
}

func snap(v *search.Vertex) snapshot {
	return snapshot{v.Parent, v.Assign, v.IsAssignment, v.Depth, v.Cursor, v.CE}
}

// birth is one creation of a vertex: a recycled vertex is born again each
// time it is reused.
type birth struct {
	seq  int
	snap snapshot
}

// recorder wraps a representation and records the birth of every vertex it
// hands the engine.
type recorder struct {
	search.Representation
	t     *testing.T
	born  map[*search.Vertex]birth
	seq   int
	skips int // skip (non-assignment, non-root) vertices born
}

func newRecorder(t *testing.T, rep search.Representation) *recorder {
	return &recorder{Representation: rep, t: t, born: make(map[*search.Vertex]birth)}
}

func (r *recorder) record(v *search.Vertex) {
	r.seq++
	r.born[v] = birth{r.seq, snap(v)}
	if !v.IsAssignment && v.Parent != nil {
		r.skips++
	}
}

func (r *recorder) Root(p *search.Problem) *search.Vertex {
	v := r.Representation.Root(p)
	r.record(v)
	return v
}

// intact reports whether v still holds its latest birth and its parent was
// not born again after it: a vertex freed and not reused reads zeroed, one
// freed and reused reads a newer birth, or its children see one.
func (r *recorder) intact(v *search.Vertex) bool {
	b, ok := r.born[v]
	return ok && b.snap == snap(v) && (v.Parent == nil || r.born[v.Parent].seq < b.seq)
}

func (r *recorder) Expand(p *search.Problem, v *search.Vertex, st *search.PathState) ([]*search.Vertex, int) {
	// The vertex and its parent, which a backtrack rebuilt the path
	// through, must both be live. Stop at once: an engine that frees live
	// vertices soon links one under itself, and then never returns.
	if !r.intact(v) || v.Parent != nil && !r.intact(v.Parent) {
		r.t.Fatalf("expanding a freed or reused vertex, or a child of one: %+v", snap(v))
	}
	succs, generated := r.Representation.Expand(p, v, st)
	for _, s := range succs {
		r.record(s)
	}
	return succs, generated
}

// check asserts the lifetime rule on a finished run, before Release: every
// vertex on Best's path is intact, and — when leaks is false — every other
// vertex the run created has been freed or reused.
func (r *recorder) check(res *search.Result, leaks bool) {
	r.t.Helper()
	onPath := make(map[*search.Vertex]bool)
	for v := res.Best; v != nil; v = v.Parent {
		onPath[v] = true
		if !r.intact(v) {
			r.t.Fatalf("a vertex on Best's path was freed or reused: born %+v, now %+v", r.born[v].snap, snap(v))
		}
	}
	if leaks {
		return
	}
	var kept int
	for v, b := range r.born {
		if !onPath[v] && b.snap == snap(v) {
			kept++
		}
	}
	if kept > 0 {
		r.t.Errorf("%d vertices off Best's path were never freed", kept)
	}
}

func TestVertexLifetime(t *testing.T) {
	// The cliff-edge batch: its first complete schedule sits behind ~1.6k
	// backtracks, and at 30ns a vertex the quantum expires among them.
	dive := func(t *testing.T) *search.Problem { return fig5Problem(t, 10, 170, 6, time.Nanosecond) }
	expiring := func(t *testing.T) *search.Problem { return fig5Problem(t, 10, 170, 6, 30*time.Nanosecond) }
	// A batch whose first complete schedule sits at depth 39, behind a
	// hundred-odd backtracks taken before the search first reaches depth 38.
	shallow := func(t *testing.T) *search.Problem { return fig5Problem(t, 3, 60, 2, time.Nanosecond) }
	// A bare tree that branches three ways and goes barren at depth 6.
	chain := func(t *testing.T) *search.Problem {
		p := fig5Problem(t, 4, 0, 1, time.Nanosecond)
		p.Tasks = nil
		return p
	}
	cases := []struct {
		name    string
		problem func(*testing.T) *search.Problem
		rep     search.Representation
		// exercised reports whether the run reached the regime the case
		// names.
		exercised func(search.Stats, *recorder) bool
	}{
		{"leaf", dive, represent.NewAssignment(),
			func(s search.Stats, _ *recorder) bool { return s.Leaf && s.Backtracks > 0 }},
		{"expiring", expiring, represent.NewAssignment(),
			func(s search.Stats, _ *recorder) bool { return s.Expired && s.Backtracks > 0 }},
		{"dead-end", chain, &fertileChain{length: 64, branch: 3, deadEnd: 6},
			func(s search.Stats, _ *recorder) bool { return s.DeadEnd && s.Backtracks > 0 }},
		{"max-backtracks", func(t *testing.T) *search.Problem {
			p := dive(t)
			p.MaxBacktracks = 40
			return p
		}, represent.NewAssignment(),
			func(s search.Stats, _ *recorder) bool { return s.BacktrackLimited }},
		{"max-depth", func(t *testing.T) *search.Problem {
			p := shallow(t)
			p.MaxDepth = 38
			return p
		}, represent.NewAssignment(),
			func(s search.Stats, _ *recorder) bool { return s.DepthLimited && s.Backtracks > 0 }},
		{"breadth", dive, &represent.Assignment{SkipInfeasible: true, Breadth: 2},
			func(s search.Stats, _ *recorder) bool { return s.Backtracks > 0 }},
		{"idle", func(t *testing.T) *search.Problem { return fig5Problem(t, 4, 30, 1, time.Nanosecond) },
			&represent.Sequence{AllowIdle: true},
			func(s search.Stats, r *recorder) bool { return r.skips > 0 && s.Backtracks > 0 }},
		// Best-first recycles only barren vertices, whose ancestors the heap
		// still holds children of.
		{"best-first", func(t *testing.T) *search.Problem {
			p := chain(t)
			p.Strategy = search.BestFirst
			return p
		}, &fertileChain{length: 64, branch: 3, deadEnd: 6},
			func(s search.Stats, _ *recorder) bool { return s.DeadEnd && s.Backtracks > 0 }},
	}
	// Each case runs on a fresh Searcher, then on one Searcher reused by
	// every case, whose free list hands the next birth the vertex freed
	// last — from this run or an earlier case's.
	var shared search.Searcher
	runs := []func(*search.Problem, search.Representation) (*search.Result, error){search.Run, shared.Run}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, run := range runs {
				p := c.problem(t)
				rec := newRecorder(t, c.rep)
				res, err := run(p, rec)
				if err != nil {
					t.Fatal(err)
				}
				if !c.exercised(res.Stats, rec) {
					t.Fatalf("fixture missed its regime: %+v", res.Stats)
				}
				// Best-first keeps interior vertices until the GC takes
				// them: its heap may hold children of any vertex it has
				// expanded.
				rec.check(res, p.Strategy == search.BestFirst)
				res.Release()
			}
		})
	}
	if shared.FreeVertices() == 0 {
		t.Error("the shared Searcher's free list is empty after every case released")
	}
}

// TestVertexSize: the step stamp sits in IsAssignment's padding.
func TestVertexSize(t *testing.T) {
	if got := unsafe.Sizeof(search.Vertex{}); got != 80 {
		t.Errorf("Vertex is %d bytes, want 80", got)
	}
}

// TestDeepBacktrackAllocations: a warm depth-first run on a kept Searcher,
// as a planner keeps one, recycles every vertex it backtracks out of, so an
// exhaustive ~87k-vertex search allocates almost nothing.
func TestDeepBacktrackAllocations(t *testing.T) {
	p := fig5Problem(t, 10, 0, 1, time.Nanosecond)
	p.Tasks = nil
	rep := &fertileChain{length: 64, branch: 4, deadEnd: 8}
	var s search.Searcher
	run := func() {
		res, err := s.Run(p, rep)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run()
	if got := testing.AllocsPerRun(5, run); got > 64 {
		t.Errorf("a warm deep-backtrack run allocated %.0f objects, want <= 64", got)
	}
}

// expandAndFree expands v by hand and frees what it made through st, as the
// engine would; it returns the number of successors.
func expandAndFree(p *search.Problem, rep search.Representation, v *search.Vertex, st *search.PathState) int {
	succs, _ := rep.Expand(p, v, st)
	for _, s := range succs {
		st.FreeVertex(s)
	}
	st.PutSuccs(succs)
	return len(succs)
}

// TestHandDrivenExpandRecycles: a representation expanded by hand over a
// NewPathState state recycles through it as a run does, so a warm expansion
// of the §5.1 burst's root allocates nothing.
func TestHandDrivenExpandRecycles(t *testing.T) {
	p := fig5Problem(t, 10, 0, 1, time.Microsecond)
	for _, rep := range []search.Representation{represent.NewAssignment(), represent.NewSequence(10)} {
		root, st := rep.Root(p), search.NewPathState(p)
		if expandAndFree(p, rep, root, st) == 0 {
			t.Fatalf("%s: the root has no successors", rep.Name())
		}
		if got := testing.AllocsPerRun(1000, func() { expandAndFree(p, rep, root, st) }); got != 0 {
			t.Errorf("%s: a warm hand-driven expansion allocated %v objects", rep.Name(), got)
		}
	}
}
