package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"rtsads/internal/experiment"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/stats"
	"rtsads/internal/workload"
)

// sim-paper: the paper's §5.1 cell on the virtual machine — P=10, 1000
// bursty transactions, RT-SADS against D-COLS. Nothing sleeps and the
// budget is virtual, so what is timed is the host speed of the figure
// pipeline, and every simulated statistic repeats exactly for a seed.

// tracedSimInstances bounds the traced passes: each traced machine owns a
// journal ring, and 2×64 of them would be memory the untraced run never
// sees.
const tracedSimInstances = 8

var simAlgos = []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS}

// simInstance is one generated problem with a machine per algorithm.
type simInstance struct {
	w        *workload.Workload
	machines []*machine.Machine // indexed like simAlgos
	journals []*obs.Observer    // traced only
}

type simPrep struct {
	instances []simInstance
	genMillis float64
}

// prepareSim generates n instances from the seed and builds their planners
// and machines. With a plan log, every planner sits behind the timing
// decorator and every machine mirrors its events into a journal.
func prepareSim(seed uint64, n int, log *planLog) (*simPrep, error) {
	p := &simPrep{instances: make([]simInstance, n)}
	rc := experiment.DefaultRunConfig()
	for i := range p.instances {
		params := workload.DefaultParams(simWorkers)
		params.NumTransactions = simTxns
		// Spread the instance seeds so that neighbouring benchmark seeds
		// share no instance.
		params.Seed = seed*1_000_003 + uint64(i)
		t0 := time.Now()
		w, err := workload.Generate(params)
		if err != nil {
			return nil, err
		}
		p.genMillis += float64(time.Since(t0)) / 1e6
		inst := simInstance{w: w}
		for _, algo := range simAlgos {
			pl, err := experiment.NewPlanner(algo, w, rc)
			if err != nil {
				return nil, err
			}
			cfg := machine.Config{Workers: simWorkers}
			if log != nil {
				pl = &timedPlanner{Planner: pl, log: log}
				o := obs.New(8192)
				cfg.Obs = o
				inst.journals = append(inst.journals, o)
			}
			cfg.Planner = pl
			m, err := machine.New(cfg)
			if err != nil {
				return nil, err
			}
			inst.machines = append(inst.machines, m)
		}
		p.instances[i] = inst
	}
	return p, nil
}

// simTotals are the exact, seed-determined statistics of one pass, per
// algorithm.
type simTotals struct {
	tasks, hits, scheduledMissed, unaccounted       int
	phases, vertices, backtracks, deadEnds, expired int
}

func (t *simTotals) add(r *metrics.RunResult) {
	t.tasks += r.Total
	t.hits += r.Hits
	t.scheduledMissed += r.ScheduledMissed
	if d := r.Total - (r.Hits + r.Purged + r.ScheduledMissed + r.LostToFailure + r.Shed); d != 0 {
		t.unaccounted += max(d, -d)
	}
	t.phases += r.Phases
	t.vertices += r.VerticesGenerated
	t.backtracks += r.Backtracks
	t.deadEnds += r.DeadEnds
	t.expired += r.QuantaExpired
}

// simPass runs every instance once under every algorithm and returns the
// totals per algorithm plus the wall time of each instance's RT-SADS run,
// in instance order.
func (p *simPrep) simPass() (totals []simTotals, instanceMicros []float64, err error) {
	totals = make([]simTotals, len(simAlgos))
	instanceMicros = make([]float64, 0, len(p.instances))
	for i := range p.instances {
		inst := &p.instances[i]
		for a, m := range inst.machines {
			t0 := time.Now()
			res, err := m.Run(inst.w.Tasks)
			if err != nil {
				return nil, nil, fmt.Errorf("instance %d %s: %w", i, simAlgos[a], err)
			}
			if a == 0 {
				instanceMicros = append(instanceMicros, micros(time.Since(t0)))
			}
			totals[a].add(res)
		}
	}
	return totals, instanceMicros, nil
}

// simTimed is the outcome of passes repeated for a wall budget.
type simTimed struct {
	first                 []simTotals
	passes                int
	tasks                 int // settled over all passes and algorithms
	wall, cpu             time.Duration
	alloc                 uint64
	gcPause               time.Duration
	passTasksPerS         []float64
	instanceMicros        [][]float64 // per instance: RT-SADS run wall, one per pass
	repeatable            bool        // every pass equalled the first
	entries, evictedFirst int64       // traced: journal growth of the first pass
}

// timedPasses repeats simPass until the budget is spent (at least twice,
// so repeatability is always checked).
func (p *simPrep) timedPasses(budget time.Duration) (*simTimed, error) {
	out := &simTimed{repeatable: true}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := processCPU()
	t0 := time.Now()
	for out.passes < 2 || time.Since(t0) < budget {
		ps := time.Now()
		totals, inst, err := p.simPass()
		if err != nil {
			return nil, err
		}
		passTasks := 0
		for _, t := range totals {
			passTasks += t.tasks
		}
		out.passTasksPerS = append(out.passTasksPerS, float64(passTasks)/time.Since(ps).Seconds())
		if out.instanceMicros == nil {
			out.instanceMicros = make([][]float64, len(inst))
		}
		for i, us := range inst {
			out.instanceMicros[i] = append(out.instanceMicros[i], us)
		}
		out.tasks += passTasks
		if out.passes == 0 {
			out.first = totals
			for i := range p.instances {
				for _, o := range p.instances[i].journals {
					out.entries += int64(o.Journal().Len())
					out.evictedFirst += o.Journal().Evicted()
				}
			}
		} else {
			for a := range totals {
				if totals[a] != out.first[a] {
					out.repeatable = false
				}
			}
		}
		out.passes++
	}
	out.wall = time.Since(t0)
	out.cpu = processCPU() - c0
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, xs := range out.instanceMicros {
		sort.Float64s(xs)
	}
	return out, nil
}

// instancePercentile is the p-quantile of one instance's run time over the
// passes, median over the instances: how long one instance's schedule takes
// to produce and how far that stretches, not how much the instances differ.
func (t *simTimed) instancePercentile(p float64) float64 {
	per := make([]float64, len(t.instanceMicros))
	for i, xs := range t.instanceMicros {
		per[i] = percentile(xs, p)
	}
	return stats.Median(per)
}

// check applies sim-paper's correctness checks and counts failed tasks.
func (t *simTimed) check(rep *report) {
	rep.attempted += t.tasks
	for a, tot := range t.first {
		if tot.unaccounted > 0 {
			rep.failed += tot.unaccounted * t.passes
			rep.fail("sim-paper %s: %d tasks with no terminal verdict", simAlgos[a], tot.unaccounted)
		}
		if tot.scheduledMissed != 0 {
			rep.fail("sim-paper %s: %d scheduled tasks missed their deadline (the §4.3 theorem is exact on the virtual machine)",
				simAlgos[a], tot.scheduledMissed)
		}
	}
	if !t.repeatable {
		rep.fail("sim-paper: two passes over the same instances differ")
	}
	if t.first[0].hits < t.first[1].hits {
		rep.fail("sim-paper: RT-SADS met %d deadlines, D-COLS %d", t.first[0].hits, t.first[1].hits)
	}
}

// untracedSim measures sim-paper's end-to-end metrics.
func untracedSim(p *simPrep, seconds float64, rep *report) error {
	t, err := p.timedPasses(time.Duration(seconds * float64(time.Second)))
	if err != nil {
		return err
	}
	t.check(rep)
	rt, dc := t.first[0], t.first[1]
	guarantee := float64(rt.hits) / float64(rt.tasks)
	// The fastest pass, for the reason timeSetups gives.
	tasksPerS := slices.Max(t.passTasksPerS)
	rep.set("guarantee_ratio", guarantee)
	rep.set("sched_kept_ratio", share(float64(rt.hits), float64(rt.hits+rt.scheduledMissed)))
	rep.set("tasks_per_s", tasksPerS)
	// No rate ladder and no wall-clock deadline here: the sustained rate is
	// the rate of deadline-meeting simulated tasks the host settles.
	rep.set("sustained_rate", tasksPerS*float64(rt.hits+dc.hits)/float64(rt.tasks+dc.tasks))
	rep.set("alloc_bytes_per_task", float64(t.alloc)/float64(t.tasks))
	rep.note("sim-paper: %d passes over %d instances in %.2fs, %d instance samples; RT-SADS hit %.4f, D-COLS hit %.4f",
		t.passes, len(p.instances), t.wall.Seconds(), t.passes*len(p.instances),
		guarantee, float64(dc.hits)/float64(dc.tasks))
	return nil
}

// tracedSim measures sim-paper's per-layer metrics: untraced passes, then
// the same instances behind the timing decorator with a journal attached,
// then the rungs on the first instance.
func tracedSim(seed uint64, seconds float64, rep *report) error {
	n := tracedSimInstances
	plain, err := prepareSim(seed, n, nil)
	if err != nil {
		return err
	}
	log := &planLog{}
	traced, err := prepareSim(seed, n, log)
	if err != nil {
		return err
	}
	budget := time.Duration(seconds * 0.3 * float64(time.Second))
	ut, err := plain.timedPasses(budget)
	if err != nil {
		return err
	}
	ut.check(rep)
	heap := startHeapSampler()
	tt, err := traced.timedPasses(budget)
	peak := heap.peakMB()
	if err != nil {
		return err
	}
	tt.check(rep)

	planWall := planMetrics(log.calls, tt.wall, rep)
	rt := tt.first[0]
	nTasks := float64(rt.tasks)
	rep.set("search.vertices_per_task", float64(rt.vertices)/nTasks)
	rep.set("search.backtracks_per_task", float64(rt.backtracks)/nTasks)
	rep.set("search.dead_end_share", share(float64(rt.deadEnds), float64(rt.phases)))
	rep.set("livecluster.phases_per_task", float64(rt.phases)/nTasks)
	// The journals keep filling over the later passes; the first pass is
	// the complete picture of one run per machine.
	firstPassTasks := float64(tt.first[0].tasks + tt.first[1].tasks)
	rep.set("obs.entries_per_task", float64(tt.entries+tt.evictedFirst)/firstPassTasks)
	rep.set("obs.evicted", float64(tt.evictedFirst))
	rep.set("runtime.gc_pause_ms", float64(tt.gcPause)/1e6)
	rep.set("runtime.heap_peak_mb", peak)
	rep.set("workload.generate_ms", plain.genMillis/float64(n))

	if err := runRungs(rungInputs{w: plain.instances[0].w, batch: simTxns, budget: rungBudget(seconds)}, rep); err != nil {
		return err
	}
	cpuUntraced := float64(ut.cpu) / 1e3 / float64(ut.tasks)
	rep.set("cpu_us_per_task", cpuUntraced)
	// No wall-clock journal here: the dispatch sample is one instance's
	// whole RT-SADS schedule.
	rep.set("dispatch_p50_us", ut.instancePercentile(0.50))
	rep.set("dispatch_p95_us", ut.instancePercentile(0.95))
	cpuTraced := float64(tt.cpu) / 1e3 / float64(tt.tasks)
	rep.set("trace.overhead_share", cpuTraced/cpuUntraced-1)
	// The only layer under the machine's loop is the planner.
	planPerTask := micros(planWall) / float64(tt.tasks)
	rep.set("ladder.residual_share", 1-planPerTask/cpuTraced)
	rep.note("sim-paper traced: %d+%d passes over %d instances, %d PlanPhase calls", ut.passes, tt.passes, n, len(log.calls))
	return nil
}
