// Benchmarks that regenerate the paper's evaluation, one per figure/table
// (see DESIGN.md's experiment index). Each benchmark iteration performs one
// complete simulated run of the corresponding experiment cell and reports
// the deadline hit ratio as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both times the reproduction and prints the headline numbers. The full
// multi-seed tables with confidence intervals come from cmd/rtsched.
package rtsads_test

import (
	"fmt"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/core"
	"rtsads/internal/experiment"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// benchRC mirrors the experiments' default scheduler parameters.
func benchRC() experiment.RunConfig {
	rc := experiment.DefaultRunConfig()
	rc.Runs = 1
	return rc
}

// runCell benchmarks one experiment cell: every iteration is one full
// simulated run with a fresh seed; the mean hit ratio is attached as a
// custom metric.
func runCell(b *testing.B, algo experiment.Algorithm, p workload.Params, rc experiment.RunConfig) {
	b.Helper()
	var hits, total int
	sched := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnce(algo, p, rc.BaseSeed+uint64(i), rc)
		if err != nil {
			b.Fatal(err)
		}
		if res.ScheduledMissed != 0 {
			b.Fatalf("theorem violated: %d scheduled tasks missed", res.ScheduledMissed)
		}
		hits += res.Hits
		total += res.Total
		sched += res.SchedulingTime
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(100*float64(hits)/float64(total), "hit%")
	}
	b.ReportMetric(float64(sched.Microseconds())/float64(b.N), "schedµs/run")
}

// BenchmarkFig5Scalability regenerates Figure 5: deadline hit ratio vs
// number of working processors at R=30%, SF=1.
func BenchmarkFig5Scalability(b *testing.B) {
	for _, workers := range []int{2, 4, 6, 8, 10} {
		for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
			b.Run(fmt.Sprintf("%s/P=%d", algo, workers), func(b *testing.B) {
				runCell(b, algo, workload.DefaultParams(workers), benchRC())
			})
		}
	}
}

// BenchmarkFig6Replication regenerates Figure 6: deadline hit ratio vs
// replication rate at P=10, SF=1.
func BenchmarkFig6Replication(b *testing.B) {
	for _, repl := range []float64{0.10, 0.30, 0.50, 0.70, 1.00} {
		for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
			b.Run(fmt.Sprintf("%s/R=%.0f%%", algo, 100*repl), func(b *testing.B) {
				p := workload.DefaultParams(10)
				p.Replication = repl
				runCell(b, algo, p, benchRC())
			})
		}
	}
}

// BenchmarkLaxitySweep regenerates the §5.1 laxity sweep: SF ∈ {1,2,3} at
// P=10, R=30%, all four algorithms.
func BenchmarkLaxitySweep(b *testing.B) {
	for _, sf := range []float64{1, 2, 3} {
		for _, algo := range experiment.Algorithms() {
			b.Run(fmt.Sprintf("%s/SF=%g", algo, sf), func(b *testing.B) {
				p := workload.DefaultParams(10)
				p.SF = sf
				runCell(b, algo, p, benchRC())
			})
		}
	}
}

// BenchmarkQuantumAblation regenerates the self-adjusting quantum study
// (experiment E4): RT-SADS under each quantum policy at SF=1 and SF=3.
func BenchmarkQuantumAblation(b *testing.B) {
	policies := []core.QuantumPolicy{
		core.NewAdaptive(),
		core.SlackOnly{Bounds: core.DefaultBounds()},
		core.LoadOnly{Bounds: core.DefaultBounds()},
		core.Fixed{D: 50 * time.Microsecond},
		core.Fixed{D: 500 * time.Microsecond},
		core.Fixed{D: 5 * time.Millisecond},
	}
	for _, sf := range []float64{1, 3} {
		for _, pol := range policies {
			b.Run(fmt.Sprintf("SF=%g/%s", sf, pol.Name()), func(b *testing.B) {
				rc := benchRC()
				rc.Policy = pol
				p := workload.DefaultParams(10)
				p.SF = sf
				runCell(b, experiment.RTSADS, p, rc)
			})
		}
	}
}

// BenchmarkDeadEndBehaviour regenerates the dead-end study (experiment E6):
// both representations at the replication rates where the sequence-oriented
// pathology appears, reporting dead-ends and idle workers.
func BenchmarkDeadEndBehaviour(b *testing.B) {
	for _, repl := range []float64{0.10, 0.30} {
		for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
			b.Run(fmt.Sprintf("%s/R=%.0f%%", algo, 100*repl), func(b *testing.B) {
				p := workload.DefaultParams(10)
				p.Replication = repl
				rc := benchRC()
				var deadEnds, idle int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunOnce(algo, p, rc.BaseSeed+uint64(i), rc)
					if err != nil {
						b.Fatal(err)
					}
					deadEnds += res.DeadEnds
					idle += res.IdleWorkers()
				}
				b.StopTimer()
				b.ReportMetric(float64(deadEnds)/float64(b.N), "deadEnds/run")
				b.ReportMetric(float64(idle)/float64(b.N), "idleWorkers/run")
			})
		}
	}
}

// BenchmarkSchedulingCost regenerates the scheduling-cost study (experiment
// E7): the paper's "physical time required to run the scheduling
// algorithm" across machine sizes.
func BenchmarkSchedulingCost(b *testing.B) {
	for _, workers := range []int{2, 6, 10} {
		for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
			b.Run(fmt.Sprintf("%s/P=%d", algo, workers), func(b *testing.B) {
				runCell(b, algo, workload.DefaultParams(workers), benchRC())
			})
		}
	}
}

// BenchmarkWorkloadGenerate measures the §5.1 workload generator itself
// (database build, replica placement, 1000 transactions with estimates).
func BenchmarkWorkloadGenerate(b *testing.B) {
	p := workload.DefaultParams(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		if _, err := workload.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanPhase measures a single RT-SADS scheduling phase over a
// full 1000-task batch — the host's inner loop — with the EDF order the
// host gives the batch before the phase.
func BenchmarkPlanPhase(b *testing.B) {
	p := workload.DefaultParams(10)
	w, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	planner, err := experiment.NewPlanner(experiment.RTSADS, w, benchRC())
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]time.Duration, p.Workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := append([]*task.Task(nil), w.Tasks...)
		task.SortEDF(batch)
		if _, err := planner.PlanPhase(core.PhaseInput{Now: 0, Batch: batch, Loads: loads}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReclaiming regenerates the resource-reclaiming study (experiment
// E8): worst-case estimates vs actual execution times, reclaiming on/off.
func BenchmarkReclaiming(b *testing.B) {
	for _, noise := range []float64{0, 0.4, 0.8} {
		for _, reclaim := range []bool{true, false} {
			mode := "on"
			if !reclaim {
				mode = "off"
			}
			b.Run(fmt.Sprintf("noise=%.0f%%/reclaim=%s", 100*noise, mode), func(b *testing.B) {
				rc := benchRC()
				rc.NoReclaim = !reclaim
				p := workload.DefaultParams(10)
				p.CostNoise = noise
				runCell(b, experiment.RTSADS, p, rc)
			})
		}
	}
}

// BenchmarkPoissonLoad regenerates the steady-state arrival study
// (experiment E10): hit ratio vs offered load under Poisson arrivals.
func BenchmarkPoissonLoad(b *testing.B) {
	for _, gap := range []time.Duration{40 * time.Microsecond, 80 * time.Microsecond, 200 * time.Microsecond} {
		for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
			b.Run(fmt.Sprintf("%s/gap=%v", algo, gap), func(b *testing.B) {
				p := workload.DefaultParams(10)
				p.Arrival = workload.Poisson
				p.MeanInterArrival = gap
				runCell(b, algo, p, benchRC())
			})
		}
	}
}

// BenchmarkMeshCheck regenerates the interconnect validation (experiment
// E11): wormhole transfer latency vs distance and contention.
func BenchmarkMeshCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.MeshCheck(11, 350_000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.DistanceRows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkPlacement regenerates the replica-placement sensitivity study
// (experiment E12).
func BenchmarkPlacement(b *testing.B) {
	for _, strat := range []affinity.Strategy{affinity.Balanced, affinity.Random, affinity.Clustered} {
		for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
			b.Run(fmt.Sprintf("%s/%s", algo, strat), func(b *testing.B) {
				p := workload.DefaultParams(10)
				p.Placement = strat
				runCell(b, algo, p, benchRC())
			})
		}
	}
}

// BenchmarkPruning regenerates the search-strategy study (experiment E9).
func BenchmarkPruning(b *testing.B) {
	variants := []struct {
		name string
		tune func(*core.SearchConfig)
	}{
		{"dfs", func(*core.SearchConfig) {}},
		{"best-first", func(c *core.SearchConfig) { c.Strategy = search.BestFirst }},
		{"depth25", func(c *core.SearchConfig) { c.MaxDepth = 25 }},
	}
	for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", algo, v.name), func(b *testing.B) {
				rc := benchRC()
				rc.Tune = v.tune
				runCell(b, algo, workload.DefaultParams(10), rc)
			})
		}
	}
}

// BenchmarkFailures regenerates the failure-injection study (experiment
// E13): compliance as workers crash mid-run.
func BenchmarkFailures(b *testing.B) {
	for _, crashed := range []int{0, 2, 4} {
		failAt := map[int]simtime.Instant{}
		for k := 0; k < crashed; k++ {
			failAt[k] = simtime.Instant((2 + 2*k)) * simtime.Instant(time.Millisecond)
		}
		for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
			b.Run(fmt.Sprintf("%s/crashed=%d", algo, crashed), func(b *testing.B) {
				rc := benchRC()
				rc.FailAt = failAt
				var hits, total, lost int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunOnce(algo, workload.DefaultParams(10), rc.BaseSeed+uint64(i), rc)
					if err != nil {
						b.Fatal(err)
					}
					hits += res.Hits
					total += res.Total
					lost += res.LostToFailure
				}
				b.StopTimer()
				b.ReportMetric(100*float64(hits)/float64(total), "hit%")
				b.ReportMetric(float64(lost)/float64(b.N), "lost/run")
			})
		}
	}
}

// BenchmarkHostArchitecture regenerates the host-architecture study
// (experiment E14): dedicated scheduling processor vs combined, equal
// hardware.
func BenchmarkHostArchitecture(b *testing.B) {
	for _, nodes := range []int{3, 11} {
		for _, combined := range []bool{false, true} {
			mode, workers := "dedicated", nodes-1
			if combined {
				mode, workers = "combined", nodes
			}
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, mode), func(b *testing.B) {
				rc := benchRC()
				rc.CombinedHost = combined
				var hits, total, missed int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunOnce(experiment.RTSADS, workload.DefaultParams(workers), rc.BaseSeed+uint64(i), rc)
					if err != nil {
						b.Fatal(err)
					}
					hits += res.Hits
					total += res.Total
					missed += res.ScheduledMissed
				}
				b.StopTimer()
				b.ReportMetric(100*float64(hits)/float64(total), "hit%")
				b.ReportMetric(float64(missed)/float64(b.N), "schedMissed/run")
			})
		}
	}
}

// BenchmarkHeuristics regenerates the heuristic-choice study (experiment
// E15): priority order × cost function for RT-SADS.
func BenchmarkHeuristics(b *testing.B) {
	for _, prio := range []task.Priority{task.EDF, task.LLF} {
		for _, sum := range []bool{false, true} {
			prio, sum := prio, sum
			cost := "max"
			if sum {
				cost = "sum"
			}
			b.Run(fmt.Sprintf("%s/%s", prio, cost), func(b *testing.B) {
				rc := benchRC()
				rc.Tune = func(c *core.SearchConfig) { c.Priority = prio; c.SumCost = sum }
				runCell(b, experiment.RTSADS, workload.DefaultParams(10), rc)
			})
		}
	}
}
