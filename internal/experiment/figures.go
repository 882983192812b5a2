package experiment

import (
	"fmt"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// Fig5 reproduces the paper's Figure 5: deadline-compliance scalability.
// Deadline hit ratio vs number of working processors (2..10) at R=30%,
// SF=1, RT-SADS vs D-COLS.
func Fig5(rc RunConfig) (*Figure, error) {
	xs, labels := intAxis(2, 10, 1, "P=%d")
	fig, err := sweep("fig5",
		"Figure 5 — deadline scalability (R=30%, SF=1)",
		"working processors", []Algorithm{RTSADS, DCOLS}, xs, labels, rc,
		func(x float64) workload.Params {
			return workload.DefaultParams(int(x))
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"Paper's claim: RT-SADS keeps increasing its hit ratio as processors are added;",
		"the sequence-oriented D-COLS does not scale up under tight deadlines (SF=1).")
	return fig, nil
}

// Fig6 reproduces the paper's Figure 6: deadline compliance under varying
// replication rates (10%..100%) at P=10, SF=1.
func Fig6(rc RunConfig) (*Figure, error) {
	xs, labels := intAxis(10, 100, 10, "R=%d%%")
	fig, err := sweep("fig6",
		"Figure 6 — deadline compliance vs replication rate (P=10, SF=1)",
		"replication rate %", []Algorithm{RTSADS, DCOLS}, xs, labels, rc,
		func(x float64) workload.Params {
			p := workload.DefaultParams(10)
			p.Replication = x / 100
			return p
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"Paper's claim: D-COLS improves as replication rises (processor choice stops",
		"mattering), while RT-SADS maintains a large lead throughout.")
	return fig, nil
}

// Laxity reproduces the §5.1 laxity sweep: the processor-scalability curves
// of Figure 5 repeated at SF=1..3, all four algorithms plus the
// zero-overhead oracle reference.
func Laxity(rc RunConfig) ([]*Figure, error) {
	algos := append(Algorithms(), Oracle)
	var figs []*Figure
	for _, sf := range []float64{1, 2, 3} {
		sf := sf
		xs, labels := intAxis(2, 10, 2, "P=%d")
		fig, err := sweep(fmt.Sprintf("laxity-sf%g", sf),
			fmt.Sprintf("Laxity sweep — hit ratio vs processors (R=30%%, SF=%g)", sf),
			"working processors", algos, xs, labels, rc,
			func(x float64) workload.Params {
				p := workload.DefaultParams(int(x))
				p.SF = sf
				return p
			})
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// QuantumRow is one policy's aggregate in the quantum ablation.
type QuantumRow struct {
	Policy string
	SF     float64
	Agg    *metrics.Aggregate
}

// QuantumAblation isolates the paper's self-adjusting scheduling-time
// mechanism (§4.2): RT-SADS at P=10, R=30% under the adaptive criterion,
// its two degenerate halves, and fixed quanta — at both a tight (SF=1) and
// a loose (SF=3) operating point. The self-adjusting criterion's value is
// robustness: each fixed quantum can be competitive at one operating point
// but degrades at the other, while the adaptive policy tracks the best
// fixed choice everywhere without tuning.
func QuantumAblation(rc RunConfig) ([]QuantumRow, error) {
	policies := []core.QuantumPolicy{
		core.NewAdaptive(),
		core.SlackOnly{Bounds: core.DefaultBounds()},
		core.LoadOnly{Bounds: core.DefaultBounds()},
		core.Fixed{D: 50 * time.Microsecond},
		core.Fixed{D: 500 * time.Microsecond},
		core.Fixed{D: 5 * time.Millisecond},
	}
	var rows []QuantumRow
	for _, sf := range []float64{1, 3} {
		for _, pol := range policies {
			cfg := rc
			cfg.Policy = pol
			p := workload.DefaultParams(10)
			p.SF = sf
			agg, err := RunRepeated(RTSADS, p, cfg)
			if err != nil {
				return nil, fmt.Errorf("quantum ablation %s SF=%g: %w", pol.Name(), sf, err)
			}
			rows = append(rows, QuantumRow{Policy: pol.Name(), SF: sf, Agg: agg})
		}
	}
	return rows, nil
}

// DeadEndRow is one (algorithm, replication) cell of the dead-end study.
type DeadEndRow struct {
	Algorithm   Algorithm
	Replication float64
	Agg         *metrics.Aggregate
}

// DeadEnds quantifies the paper's §3 conjecture: sequence-oriented search
// hits dead-ends and leaves processors idle when low replication forces
// tasks onto specific processors.
func DeadEnds(rc RunConfig) ([]DeadEndRow, error) {
	var rows []DeadEndRow
	for _, repl := range []float64{0.10, 0.30} {
		for _, algo := range []Algorithm{RTSADS, DCOLS} {
			p := workload.DefaultParams(10)
			p.Replication = repl
			agg, err := RunRepeated(algo, p, rc)
			if err != nil {
				return nil, fmt.Errorf("dead-end study %s R=%v: %w", algo, repl, err)
			}
			rows = append(rows, DeadEndRow{Algorithm: algo, Replication: repl, Agg: agg})
		}
	}
	return rows, nil
}

// PoissonLoad is experiment E10 (an extension): steady-state behaviour
// under Poisson arrivals instead of the paper's single burst. The x-axis is
// the mean inter-arrival time; smaller gaps mean higher offered load (the
// default workload's mean transaction cost is ~0.5ms, so a 50µs gap
// saturates ten workers).
func PoissonLoad(rc RunConfig) (*Figure, error) {
	gaps := []float64{40, 60, 80, 120, 200} // µs
	labels := make([]string, len(gaps))
	for i, g := range gaps {
		labels[i] = fmt.Sprintf("1/λ=%.0fµs", g)
	}
	fig, err := sweep("poisson",
		"Poisson arrivals — hit ratio vs mean inter-arrival time (P=10, R=30%, SF=1)",
		"mean inter-arrival µs", []Algorithm{RTSADS, DCOLS}, gaps, labels, rc,
		func(x float64) workload.Params {
			p := workload.DefaultParams(10)
			p.Arrival = workload.Poisson
			p.MeanInterArrival = time.Duration(x) * time.Microsecond
			return p
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"Extension beyond the paper's bursty arrivals: compliance rises as offered",
		"load falls; the assignment-oriented representation keeps its lead.")
	return fig, nil
}

// PruneRow is one cell of the search-strategy/pruning study.
type PruneRow struct {
	Algorithm Algorithm
	Variant   string
	Agg       *metrics.Aggregate
}

// Pruning is experiment E9: the §3 pruning heuristics (limited
// backtracking, depth bounds) and a best-first exploration order, applied
// to both representations at P=10, R=30%, SF=1. The paper argues the
// sequence-oriented representation suffers disproportionately when pruning
// narrows its options.
func Pruning(rc RunConfig) ([]PruneRow, error) {
	variants := []struct {
		name string
		tune func(*core.SearchConfig)
	}{
		{"dfs (paper)", func(*core.SearchConfig) {}},
		{"best-first", func(c *core.SearchConfig) { c.Strategy = search.BestFirst }},
		{"dfs, ≤10 backtracks", func(c *core.SearchConfig) { c.MaxBacktracks = 10 }},
		{"dfs, depth ≤25", func(c *core.SearchConfig) { c.MaxDepth = 25 }},
	}
	var rows []PruneRow
	for _, algo := range []Algorithm{RTSADS, DCOLS} {
		for _, v := range variants {
			cfg := rc
			cfg.Tune = v.tune
			agg, err := RunRepeated(algo, workload.DefaultParams(10), cfg)
			if err != nil {
				return nil, fmt.Errorf("pruning %s %s: %w", algo, v.name, err)
			}
			rows = append(rows, PruneRow{Algorithm: algo, Variant: v.name, Agg: agg})
		}
	}
	// The paper notes Figure 1's round-robin processor order can be
	// replaced by a heuristic; measure the least-loaded variant.
	agg, err := RunRepeated(DCOLSLeastLoaded, workload.DefaultParams(10), rc)
	if err != nil {
		return nil, fmt.Errorf("pruning %s: %w", DCOLSLeastLoaded, err)
	}
	rows = append(rows, PruneRow{Algorithm: DCOLS, Variant: "dfs, least-loaded procs", Agg: agg})
	return rows, nil
}

// HeuristicRow is one cell of the heuristic-choice study.
type HeuristicRow struct {
	Priority string // batch ordering: edf or llf
	Cost     string // partial-schedule cost: max or sum
	SF       float64
	Agg      *metrics.Aggregate
}

// Heuristics is experiment E15: the two heuristic choices §3 leaves open —
// the batch priority order (EDF vs least-laxity-first) and the §4.4 cost
// function (CE = max_k ce_k vs Σ_k ce_k) — for RT-SADS at P=10, R=30%, at
// both a tight and a loose laxity point.
func Heuristics(rc RunConfig) ([]HeuristicRow, error) {
	var rows []HeuristicRow
	for _, sf := range []float64{1, 3} {
		for _, prio := range []task.Priority{task.EDF, task.LLF} {
			for _, sum := range []bool{false, true} {
				prio, sum := prio, sum
				cfg := rc
				cfg.Tune = func(c *core.SearchConfig) {
					c.Priority = prio
					c.SumCost = sum
				}
				p := workload.DefaultParams(10)
				p.SF = sf
				agg, err := RunRepeated(RTSADS, p, cfg)
				if err != nil {
					return nil, fmt.Errorf("heuristics %v/%v SF=%g: %w", prio, sum, sf, err)
				}
				costName := "max (paper)"
				if sum {
					costName = "sum"
				}
				rows = append(rows, HeuristicRow{
					Priority: prio.String(), Cost: costName, SF: sf, Agg: agg,
				})
			}
		}
	}
	return rows, nil
}

// HostRow is one cell of the host-architecture study.
type HostRow struct {
	Mode  string // "dedicated" or "combined"
	Nodes int    // total processing nodes, host included
	Agg   *metrics.Aggregate
}

// HostArchitecture is experiment E14: is the paper's dedicated scheduling
// processor worth a whole node? For equal hardware (N nodes total), the
// dedicated configuration runs N-1 workers plus a host, while the combined
// configuration runs N workers with the scheduler stealing worker 0's
// cycles — which also forfeits the §4.3 guarantee for worker 0's queue.
func HostArchitecture(rc RunConfig) ([]HostRow, error) {
	var rows []HostRow
	for _, nodes := range []int{3, 5, 11} {
		for _, combined := range []bool{false, true} {
			cfg := rc
			cfg.CombinedHost = combined
			workers := nodes - 1
			mode := "dedicated"
			if combined {
				workers = nodes
				mode = "combined"
			}
			agg, err := RunRepeated(RTSADS, workload.DefaultParams(workers), cfg)
			if err != nil {
				return nil, fmt.Errorf("host study %s nodes=%d: %w", mode, nodes, err)
			}
			rows = append(rows, HostRow{Mode: mode, Nodes: nodes, Agg: agg})
		}
	}
	return rows, nil
}

// FailureRow is one cell of the failure-injection study.
type FailureRow struct {
	Algorithm Algorithm
	// Crashed is how many workers crash (at staggered times); 0 is the
	// baseline.
	Crashed int
	Agg     *metrics.Aggregate
}

// Failures is experiment E13 (an extension): worker crashes injected
// mid-run at P=10, R=30%, SF=1. Because the scheduler sees a crashed worker
// as permanently loaded, its feasibility test routes all remaining work to
// the survivors; compliance should degrade by roughly the lost capacity
// plus the tasks stranded on the dead workers' queues.
func Failures(rc RunConfig) ([]FailureRow, error) {
	var rows []FailureRow
	for _, crashed := range []int{0, 1, 2, 4} {
		failAt := map[int]simtime.Instant{}
		for k := 0; k < crashed; k++ {
			// Stagger the crashes across the burst's busy period.
			failAt[k] = simtime.Instant((2 + 2*k)) * simtime.Instant(time.Millisecond)
		}
		for _, algo := range []Algorithm{RTSADS, DCOLS} {
			cfg := rc
			cfg.FailAt = failAt
			agg, err := RunRepeated(algo, workload.DefaultParams(10), cfg)
			if err != nil {
				return nil, fmt.Errorf("failure study %s crashed=%d: %w", algo, crashed, err)
			}
			rows = append(rows, FailureRow{Algorithm: algo, Crashed: crashed, Agg: agg})
		}
	}
	return rows, nil
}

// PlacementRow is one cell of the replica-placement study.
type PlacementRow struct {
	Algorithm Algorithm
	Strategy  affinity.Strategy
	Agg       *metrics.Aggregate
}

// Placement is experiment E12: sensitivity of both representations to the
// replica-placement strategy (the paper does not specify its placement) at
// P=10, R=30%, SF=1.
func Placement(rc RunConfig) ([]PlacementRow, error) {
	var rows []PlacementRow
	for _, strat := range []affinity.Strategy{affinity.Balanced, affinity.Random, affinity.Clustered} {
		for _, algo := range []Algorithm{RTSADS, DCOLS} {
			p := workload.DefaultParams(10)
			p.Placement = strat
			agg, err := RunRepeated(algo, p, rc)
			if err != nil {
				return nil, fmt.Errorf("placement %s %s: %w", algo, strat, err)
			}
			rows = append(rows, PlacementRow{Algorithm: algo, Strategy: strat, Agg: agg})
		}
	}
	return rows, nil
}

// ReclaimRow is one cell of the resource-reclaiming study.
type ReclaimRow struct {
	Noise   float64 // workload CostNoise: actual ∈ [(1-noise)×WCET, WCET]
	Reclaim bool
	Agg     *metrics.Aggregate
}

// Reclaiming is experiment E8 (an extension along the paper's refs
// [3][5]): the host schedules with worst-case execution estimates while
// actual times fall short by up to the noise fraction; with reclaiming,
// workers start the next queued task as soon as the previous one really
// finishes. RT-SADS at P=10, R=30%, SF=1.
func Reclaiming(rc RunConfig) ([]ReclaimRow, error) {
	var rows []ReclaimRow
	for _, noise := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		for _, reclaim := range []bool{true, false} {
			cfg := rc
			cfg.NoReclaim = !reclaim
			p := workload.DefaultParams(10)
			p.CostNoise = noise
			agg, err := RunRepeated(RTSADS, p, cfg)
			if err != nil {
				return nil, fmt.Errorf("reclaiming noise=%v reclaim=%v: %w", noise, reclaim, err)
			}
			rows = append(rows, ReclaimRow{Noise: noise, Reclaim: reclaim, Agg: agg})
		}
	}
	return rows, nil
}

// CostRow is one (algorithm, processors) cell of the scheduling-cost study.
type CostRow struct {
	Algorithm Algorithm
	Workers   int
	Agg       *metrics.Aggregate
}

// SchedulingCost measures the paper's §5.1 scheduling-cost metric — the
// time spent running the scheduling algorithm — across machine sizes.
func SchedulingCost(rc RunConfig) ([]CostRow, error) {
	var rows []CostRow
	for _, workers := range []int{2, 6, 10} {
		for _, algo := range []Algorithm{RTSADS, DCOLS} {
			agg, err := RunRepeated(algo, workload.DefaultParams(workers), rc)
			if err != nil {
				return nil, fmt.Errorf("cost study %s P=%d: %w", algo, workers, err)
			}
			rows = append(rows, CostRow{Algorithm: algo, Workers: workers, Agg: agg})
		}
	}
	return rows, nil
}

// intAxis builds an integer x-axis lo..hi step with printf-formatted
// labels.
func intAxis(lo, hi, step int, format string) ([]float64, []string) {
	var xs []float64
	var labels []string
	for v := lo; v <= hi; v += step {
		xs = append(xs, float64(v))
		labels = append(labels, fmt.Sprintf(format, v))
	}
	return xs, labels
}
