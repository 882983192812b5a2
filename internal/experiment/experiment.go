// Package experiment defines and runs the paper's evaluation (§5): every
// figure, the methodology (10 runs per point, means, 99% confidence
// intervals, two-tailed difference-of-means tests), and the extra ablations
// DESIGN.md catalogues. The cmd/rtsched binary and the repository-level
// benchmarks are thin wrappers over this package.
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/policy"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// Algorithm names a scheduler under test: the policy registry's name type,
// aliased here so the evaluation's callers keep their spelling.
type Algorithm = policy.Algorithm

// The schedulers the experiments compare. Oracle is not part of
// Algorithms(); experiments opt in.
const (
	RTSADS           = policy.RTSADS
	DCOLS            = policy.DCOLS
	EDFGreedy        = policy.EDFGreedy
	Myopic           = policy.Myopic
	Oracle           = policy.Oracle
	DCOLSLeastLoaded = policy.DCOLSLeastLoaded
)

// Algorithms returns the full comparison set in display order.
func Algorithms() []Algorithm {
	return []Algorithm{RTSADS, DCOLS, EDFGreedy, Myopic}
}

// RunConfig fixes the scheduler-side parameters shared by every point of an
// experiment.
type RunConfig struct {
	// Runs is the number of repetitions per point (the paper uses 10).
	Runs int
	// BaseSeed seeds run i with BaseSeed+i.
	BaseSeed uint64
	// VertexCost models the host's scheduling speed.
	VertexCost time.Duration
	// PhaseCost is the fixed per-phase host overhead (batch formation,
	// priority sorting, schedule delivery).
	PhaseCost time.Duration
	// Policy allocates each phase's quantum; nil means the paper's
	// adaptive criterion with default bounds.
	Policy core.QuantumPolicy
	// NoReclaim disables resource reclaiming on the machine (workers hold
	// worst-case slots even when tasks finish early).
	NoReclaim bool
	// Tune, when non-nil, adjusts the planner's search configuration after
	// the defaults are filled in — the hook the pruning/strategy ablations
	// use.
	Tune func(*core.SearchConfig)
	// FailAt injects worker crashes (worker index → crash time) for the
	// failure study.
	FailAt map[int]simtime.Instant
	// CombinedHost runs the scheduler on worker 0 instead of a dedicated
	// host processor (the E14 architecture ablation).
	CombinedHost bool
}

// DefaultRunConfig returns the paper's methodology: 10 runs, adaptive
// quantum, 1µs per search vertex, 25µs fixed per-phase host overhead.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Runs:       10,
		BaseSeed:   1,
		VertexCost: time.Microsecond,
		PhaseCost:  25 * time.Microsecond,
		Policy:     core.NewAdaptive(),
	}
}

// Validate reports whether the configuration is usable.
func (c RunConfig) Validate() error {
	if c.Runs <= 0 {
		return fmt.Errorf("experiment: Runs %d must be positive", c.Runs)
	}
	if c.VertexCost <= 0 {
		return fmt.Errorf("experiment: VertexCost %v must be positive", c.VertexCost)
	}
	return nil
}

func (c RunConfig) policy() core.QuantumPolicy {
	if c.Policy == nil {
		return core.NewAdaptive()
	}
	return c.Policy
}

// NewPlanner builds the named scheduler for a workload.
func NewPlanner(algo Algorithm, w *workload.Workload, rc RunConfig) (core.Planner, error) {
	cost := w.Cost
	scfg := core.SearchConfig{
		Workers:    w.Params.Workers,
		Comm:       func(t *task.Task, proc int) time.Duration { return cost.Cost(t.Affinity, proc) },
		VertexCost: rc.VertexCost,
		PhaseCost:  rc.PhaseCost,
		Policy:     rc.policy(),
	}
	if rc.Tune != nil {
		rc.Tune(&scfg)
	}
	// Construction is delegated to the policy registry, so the experiments
	// can run anything registered there under one name space.
	return policy.Default().New(string(algo), policy.Options{Search: scfg})
}

// RunOnce generates the workload for p (with the given seed) and simulates
// it under the named scheduler.
func RunOnce(algo Algorithm, p workload.Params, seed uint64, rc RunConfig) (*metrics.RunResult, error) {
	p.Seed = seed
	w, err := workload.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	planner, err := NewPlanner(algo, w, rc)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(machine.Config{
		Workers:      p.Workers,
		Planner:      planner,
		NoReclaim:    rc.NoReclaim,
		FailAt:       rc.FailAt,
		CombinedHost: rc.CombinedHost,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s run: %w", algo, err)
	}
	return res, nil
}

// RunRepeated executes rc.Runs independent runs (seeds BaseSeed,
// BaseSeed+1, ...) of one configuration and aggregates them.
func RunRepeated(algo Algorithm, p workload.Params, rc RunConfig) (*metrics.Aggregate, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	agg := &metrics.Aggregate{}
	for i := 0; i < rc.Runs; i++ {
		res, err := RunOnce(algo, p, rc.BaseSeed+uint64(i), rc)
		if err != nil {
			return nil, err
		}
		agg.Add(res)
	}
	return agg, nil
}

// Point is one x-axis position of a figure, with one aggregate per
// algorithm.
type Point struct {
	X     float64
	Label string
	Aggs  map[Algorithm]*metrics.Aggregate
}

// Figure is the reproduction of one of the paper's plots: named series of
// aggregated points.
type Figure struct {
	ID         string
	Title      string
	XLabel     string
	Algorithms []Algorithm
	Points     []Point
	Notes      []string
}

// sweep runs every (algorithm × point) cell of a figure, fanning the
// independent cells out over the available CPUs. Each cell is a pure
// function of its seed set, so parallel execution is still bit-for-bit
// deterministic. configure must return the workload parameters for x.
func sweep(id, title, xlabel string, algos []Algorithm, xs []float64, labels []string,
	rc RunConfig, configure func(x float64) workload.Params) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, XLabel: xlabel, Algorithms: algos}
	fig.Points = make([]Point, len(xs))
	for i, x := range xs {
		fig.Points[i] = Point{X: x, Label: labels[i], Aggs: map[Algorithm]*metrics.Aggregate{}}
	}

	type cell struct {
		point int
		algo  Algorithm
	}
	cells := make([]cell, 0, len(xs)*len(algos))
	for i := range xs {
		for _, algo := range algos {
			cells = append(cells, cell{point: i, algo: algo})
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int64 = -1
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(cells) {
					return
				}
				c := cells[i]
				agg, err := RunRepeated(c.algo, configure(xs[c.point]), rc)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s at %s: %w", c.algo, labels[c.point], err)
				}
				if err == nil {
					fig.Points[c.point].Aggs[c.algo] = agg
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return fig, nil
}
