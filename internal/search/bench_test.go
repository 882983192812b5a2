package search_test

// BenchmarkSearchCore is the tracked search-core performance suite:
// scripts/bench.sh runs it and writes BENCH_search.json, and the CI
// bench-regression job fails the build when expand-only ns/op or allocs/op
// regresses >20% against the committed baseline. See ARCHITECTURE.md §8.
// Every whole-run sub-benchmark releases its result, as the planners do once
// the schedule is out, so allocs/op counts what a phase loop allocates.

import (
	"testing"
	"time"

	"rtsads/internal/represent"
	"rtsads/internal/search"
)

// benchProblem is the Fig-5-style scalability point the suite measures:
// P=10 workers, the default 1000-transaction batch, EDF order.
func benchProblem(b *testing.B, vertexCost time.Duration) *search.Problem {
	return fig5Problem(b, 10, 0, 1, vertexCost)
}

// diveProblem is the full-dive fixture: a 170-transaction batch at the
// feasibility cliff, where the first feasible schedule exists but costs
// ~1.6k backtracks to find. The search completes well inside the quantum
// (tree-bound, not budget-bound).
func diveProblem(b *testing.B) *search.Problem {
	return fig5Problem(b, 10, 170, 6, time.Nanosecond)
}

func BenchmarkSearchCore(b *testing.B) {
	b.Run("expand-only", func(b *testing.B) {
		// One expansion of the root: P feasibility probes, a pooled
		// successor slice, an insertion sort. The delta layout makes this
		// allocation-free in steady state.
		p := benchProblem(b, time.Microsecond)
		rep := represent.NewAssignment()
		root := rep.Root(p)
		st := search.NewPathState(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			succs, _ := rep.Expand(p, root, st)
			if len(succs) == 0 {
				b.Fatal("no successors")
			}
			for _, s := range succs {
				search.FreeVertex(s)
			}
			search.PutSuccs(succs)
		}
	})

	b.Run("run-expiring", func(b *testing.B) {
		// Whole-phase search at the experiment default (1µs/vertex): the
		// quantum expires mid-tree, the paper's operating regime.
		p := benchProblem(b, time.Microsecond)
		rep := represent.NewAssignment()
		var tasks int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := search.Run(p, rep)
			if err != nil {
				b.Fatal(err)
			}
			tasks += res.Best.Depth
			res.Release()
		}
		b.StopTimer()
		b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
	})

	b.Run("deep-backtrack", func(b *testing.B) {
		// A branching chain that dead-ends at depth 8: the engine dives,
		// exhausts every subtree, and rebuilds PathState on every sibling
		// jump — the O(depth) path the delta layout pays for its O(1)
		// descend. The tree (~87k vertices) is explored exhaustively.
		p := benchProblem(b, time.Nanosecond)
		p.Tasks = nil
		rep := &fertileChain{length: 64, branch: 4, deadEnd: 8}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := search.Run(p, rep)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.DeadEnd || res.Stats.Backtracks == 0 {
				b.Fatal("fixture did not backtrack")
			}
			res.Release()
		}
	})

	b.Run("best-first", func(b *testing.B) {
		// Global cost ordering: every expansion churns the candidate heap,
		// and every pop is a cross-branch jump that rebuilds PathState.
		p := benchProblem(b, time.Microsecond)
		p.Strategy = search.BestFirst
		rep := represent.NewAssignment()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := search.Run(p, rep)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
	})

	b.Run("full-dive", func(b *testing.B) {
		// Near-free vertices (1ns) over a batch sitting at the feasibility
		// cliff: the search completes — first feasible schedule found,
		// depth 141 — but only after ~1.6k backtracks and ~212k generated
		// vertices, most of them re-probes of already-seen states. This is
		// the tree-bound regime (the quantum survives; contrast
		// run-expiring).
		p := diveProblem(b)
		rep := represent.NewAssignment()
		var tasks int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := search.Run(p, rep)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.Leaf {
				b.Fatal("fixture did not complete")
			}
			tasks += res.Best.Depth
			res.Release()
		}
		b.StopTimer()
		b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
	})
}

// fertileChain is a synthetic representation: every vertex has `branch`
// successors until depth deadEnd, where all branches go barren — maximal
// backtracking with no schedule semantics in the way.
type fertileChain struct {
	length  int
	branch  int
	deadEnd int
}

func (c *fertileChain) Name() string { return "fertile-chain" }

func (c *fertileChain) Root(*search.Problem) *search.Vertex { return search.NewVertex() }

func (c *fertileChain) IsLeaf(_ *search.Problem, v *search.Vertex) bool { return v.Depth >= c.length }

func (c *fertileChain) Expand(p *search.Problem, v *search.Vertex, _ *search.PathState) ([]*search.Vertex, int) {
	if v.Depth >= c.deadEnd {
		return nil, c.branch
	}
	succs := search.GetSuccs()
	for i := 0; i < c.branch; i++ {
		sv := search.NewVertex()
		sv.Parent = v
		sv.IsAssignment = true
		sv.Depth = v.Depth + 1
		sv.CE = v.CE + time.Duration(i)
		succs = append(succs, sv)
	}
	return succs, c.branch
}
