package policy

import (
	"reflect"
	"testing"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/machine"
	"rtsads/internal/represent"
	"rtsads/internal/rng"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

func anytimeSearchConfig(workers int) core.SearchConfig {
	return core.SearchConfig{
		Workers: workers,
		Comm: func(t *task.Task, proc int) time.Duration {
			if int(t.Payload)%workers == proc {
				return 0
			}
			return 100 * time.Microsecond
		},
		VertexCost: time.Microsecond,
		PhaseCost:  25 * time.Microsecond,
		Policy:     core.NewAdaptive(),
	}
}

// TestAnytimeDeterminism runs the full pipeline twice from identical seeds:
// two fresh RT-SADS+GA planners over the same generated workload must
// produce bit-identical run results. The CI race job runs this under
// -race, so it doubles as a data-race probe of the planner's scratch reuse.
func TestAnytimeDeterminism(t *testing.T) {
	run := func() *struct {
		res interface{}
	} {
		params := workload.DefaultParams(4)
		params.NumTransactions = 250
		params.SF = 0.5 // tight deadlines keep the pressure gate armed
		w, err := workload.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		cfg := anytimeSearchConfig(4)
		cost := w.Cost
		cfg.Comm = func(tk *task.Task, proc int) time.Duration { return cost.Cost(tk.Affinity, proc) }
		planner, err := NewAnytime(cfg, GAConfig{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(machine.Config{Workers: 4, Planner: planner})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(w.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		return &struct{ res interface{} }{res}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.res, b.res) {
		t.Fatalf("same seed, different runs:\n  a: %+v\n  b: %+v", a.res, b.res)
	}
}

// TestAnytimePhaseDeterminism drives PlanPhase directly: two fresh planners
// fed the same crafted phase sequence must return identical results, field
// for field, including Used and the full schedule.
func TestAnytimePhaseDeterminism(t *testing.T) {
	mkPlanner := func() core.Planner {
		p, err := NewAnytime(anytimeSearchConfig(3), GAConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := mkPlanner(), mkPlanner()
	src := rng.New(42)
	now := simtime.Instant(0)
	loads := make([]time.Duration, 3)
	for phase := 0; phase < 12; phase++ {
		n := 4 + src.Intn(10)
		batch := make([]*task.Task, n)
		for i := range batch {
			proc := time.Duration(100+src.Intn(700)) * time.Microsecond
			window := proc + time.Duration(src.Intn(1500))*time.Microsecond
			batch[i] = &task.Task{
				ID:       task.ID(phase*100 + i),
				Arrival:  now,
				Proc:     proc,
				Deadline: now.Add(window),
				Payload:  int32(src.Intn(3)),
			}
		}
		in1 := core.PhaseInput{Now: now, Batch: append([]*task.Task(nil), batch...), Loads: append([]time.Duration(nil), loads...)}
		in2 := core.PhaseInput{Now: now, Batch: append([]*task.Task(nil), batch...), Loads: append([]time.Duration(nil), loads...)}
		r1, err1 := p1.PlanPhase(in1)
		r2, err2 := p2.PlanPhase(in2)
		if err1 != nil || err2 != nil {
			t.Fatalf("phase %d: errors %v / %v", phase, err1, err2)
		}
		if r1.Quantum != r2.Quantum || r1.Used != r2.Used {
			t.Fatalf("phase %d: quantum/used diverged: %v/%v vs %v/%v", phase, r1.Quantum, r1.Used, r2.Quantum, r2.Used)
		}
		if !reflect.DeepEqual(r1.Schedule, r2.Schedule) {
			t.Fatalf("phase %d: schedules diverged (%d vs %d assignments)", phase, len(r1.Schedule), len(r2.Schedule))
		}
		if r1.Stats.Generated != r2.Stats.Generated || r1.Stats.Consumed != r2.Stats.Consumed {
			t.Fatalf("phase %d: stats diverged: %+v vs %+v", phase, r1.Stats, r2.Stats)
		}
		// Advance the frame like the machine would: drain the quantum,
		// charge the placed work.
		for i := range loads {
			loads[i] = simtime.NonNeg(loads[i] - r1.Used)
		}
		for _, a := range r1.Schedule {
			loads[a.Proc] += a.Task.Proc + a.Comm
		}
		now = now.Add(r1.Used)
	}
}

// TestAnytimeGuarantee runs the anytime planner through the machine on a
// standard workload: the §4.3 guarantee must hold — nothing scheduled ever
// misses — and the terminal buckets must reconcile.
func TestAnytimeGuarantee(t *testing.T) {
	params := workload.DefaultParams(8)
	params.NumTransactions = 300
	w, err := workload.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := anytimeSearchConfig(8)
	cost := w.Cost
	cfg.Comm = func(tk *task.Task, proc int) time.Duration { return cost.Cost(tk.Affinity, proc) }
	planner, err := NewAnytime(cfg, GAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{Workers: 8, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := reconcile(res); err != nil {
		t.Fatal(err)
	}
}

// TestGASeededSearchNeverWorse is the 50-seed differential: for random
// per-phase problems, an unseeded search at budget B is compared against
// the anytime composition — GA incumbent on its own allowance, then a
// search at the SAME budget B with the incumbent's CE as BoundCE, winner
// picked by the engine's better() order. The composition must never be
// worse: if the unseeded best was pruned by the bound, the complete
// incumbent that set the bound is deeper-or-equal and strictly cheaper;
// otherwise the seeded search reaches the same best no later, because
// pruning only skips subtrees.
func TestGASeededSearchNeverWorse(t *testing.T) {
	const (
		workers = 4
		budget  = 256 * time.Microsecond
		nTasks  = 10
	)
	comm := func(tk *task.Task, proc int) time.Duration {
		if int(tk.Payload)%workers == proc {
			return 0
		}
		return 50 * time.Microsecond
	}
	boundApplied := 0
	for seed := uint64(1); seed <= 50; seed++ {
		src := rng.New(seed)
		batch := make([]*task.Task, nTasks)
		for i := range batch {
			proc := time.Duration(100+src.Intn(600)) * time.Microsecond
			slack := time.Duration(src.Intn(2000)) * time.Microsecond
			batch[i] = &task.Task{
				ID:       task.ID(i),
				Proc:     proc,
				Deadline: simtime.Instant(budget) + simtime.Instant(proc+slack),
				Payload:  int32(src.Intn(workers)),
			}
		}
		task.SortEDF(batch)
		loads := make([]time.Duration, workers)
		for i := range loads {
			loads[i] = time.Duration(src.Intn(200)) * time.Microsecond
		}

		runSearch := func(bound time.Duration) (int, time.Duration) {
			prob := search.Problem{
				Now:        0,
				Quantum:    budget,
				Tasks:      batch,
				Workers:    workers,
				BaseLoad:   append([]time.Duration(nil), loads...),
				Comm:       comm,
				VertexCost: time.Microsecond,
				BoundCE:    bound,
			}
			res, err := search.Run(&prob, represent.NewAssignment())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			depth, ce := len(res.Schedule()), time.Duration(0)
			if res.Best != nil {
				ce = res.Best.CE
			}
			res.Release()
			return depth, ce
		}

		uDepth, uCE := runSearch(0)

		// The anytime composition: GA on its own allowance, then the
		// bound-seeded search, then the winner rule.
		rootLoads := make([]time.Duration, workers)
		for i, l := range loads {
			rootLoads[i] = simtime.NonNeg(l - budget)
		}
		ga := newGAState(GAConfig{Seed: seed}.withDefaults(), rng.New(seed+1000), workers, false,
			comm, time.Microsecond, nil, simtime.Instant(budget), rootLoads, batch, budget/2)
		ga.evolve(budget / 2)
		var bound time.Duration
		if ga.complete() {
			bound = ga.best.ce
			boundApplied++
		}
		sDepth, sCE := runSearch(bound)
		wDepth, wCE := sDepth, sCE
		if ga.best.evaluated && (ga.best.depth > wDepth || (ga.best.depth == wDepth && ga.best.ce < wCE)) {
			wDepth, wCE = ga.best.depth, ga.best.ce
		}

		if wDepth < uDepth || (wDepth == uDepth && wCE > uCE) {
			t.Fatalf("seed %d: GA-seeded composition worse than unseeded: (%d, %v) vs (%d, %v), bound %v",
				seed, wDepth, wCE, uDepth, uCE, bound)
		}
	}
	if boundApplied == 0 {
		t.Fatal("vacuous sweep: the GA incumbent never completed, so BoundCE was never exercised")
	}
}

// TestGAPrefixAffordability: the permutation length must shrink so that at
// least two decodes fit the stage-A allowance — otherwise the optimizer
// could never run under the experiments' calibration.
func TestGAPrefixAffordability(t *testing.T) {
	batch := make([]*task.Task, 30)
	for i := range batch {
		batch[i] = &task.Task{ID: task.ID(i), Proc: time.Millisecond, Deadline: simtime.Instant(time.Hour)}
	}
	comm := func(*task.Task, int) time.Duration { return 0 }
	// allowance 118µs at 8 workers × 1µs: afford = 118/(2×8) = 7.
	ga := newGAState(GAConfig{}.withDefaults(), rng.New(1), 8, false, comm,
		time.Microsecond, nil, simtime.Instant(time.Hour), make([]time.Duration, 8), batch, 118*time.Microsecond)
	if ga.k != 7 {
		t.Fatalf("prefix not capped by affordability: k=%d, want 7", ga.k)
	}
	used := ga.evolve(118 * time.Microsecond)
	if used == 0 || used > 118*time.Microsecond {
		t.Fatalf("evolve used %v of a 118µs allowance", used)
	}
	if !ga.best.evaluated {
		t.Fatal("no incumbent after an affordable evolve")
	}
}

// TestGAMonotoneIncumbent: evolving longer can only improve the incumbent
// under the (depth, ce) order.
func TestGAMonotoneIncumbent(t *testing.T) {
	src := rng.New(3)
	batch := make([]*task.Task, 12)
	for i := range batch {
		proc := time.Duration(100+src.Intn(500)) * time.Microsecond
		batch[i] = &task.Task{
			ID:       task.ID(i),
			Proc:     proc,
			Deadline: simtime.Instant(300*time.Microsecond) + simtime.Instant(proc+time.Duration(src.Intn(1200))*time.Microsecond),
			Payload:  int32(src.Intn(4)),
		}
	}
	task.SortEDF(batch)
	comm := func(tk *task.Task, proc int) time.Duration {
		if int(tk.Payload)%4 == proc {
			return 0
		}
		return 50 * time.Microsecond
	}
	ga := newGAState(GAConfig{}.withDefaults(), rng.New(9), 4, false, comm,
		time.Microsecond, nil, simtime.Instant(300*time.Microsecond), make([]time.Duration, 4), batch, time.Hour)
	prev := gaFit{}
	for round := 0; round < 10; round++ {
		ga.evolve(200 * time.Microsecond)
		if prev.betterThan(ga.best) {
			t.Fatalf("round %d: incumbent regressed from %+v to %+v", round, prev, ga.best)
		}
		prev = ga.best
	}
	if !prev.evaluated {
		t.Fatal("no incumbent after 10 rounds")
	}
}

// TestAnytimeSearchesPastDeadWorker: with a dead worker padded to
// search.Unreachable (what machine.Host gives a crashed one), a complete GA
// incumbent must still bound the DFS by the survivors' cost. Counted into
// CE, the dead load made every vertex cost the same and the bound pruned the
// search at its root, so RT-SADS+GA planned as the GA alone.
func TestAnytimeSearchesPastDeadWorker(t *testing.T) {
	p, err := NewAnytime(anytimeSearchConfig(4), GAConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	loads := []time.Duration{0, 0, 0, search.Unreachable}
	// A hopeless task leaves the first phase short of the batch, which arms
	// the GA for the second.
	arm := []*task.Task{
		{ID: 1, Proc: time.Millisecond, Deadline: simtime.Instant(time.Millisecond)},
		{ID: 2, Proc: time.Millisecond, Deadline: simtime.Instant(time.Second)},
	}
	if _, err := p.PlanPhase(core.PhaseInput{Batch: arm, Loads: loads}); err != nil {
		t.Fatal(err)
	}
	var batch []*task.Task
	for i := 0; i < 6; i++ {
		batch = append(batch, &task.Task{ID: task.ID(10 + i), Payload: int32(i),
			Proc: time.Duration(200+50*i) * time.Microsecond, Deadline: simtime.Instant(time.Second)})
	}
	res, err := p.PlanPhase(core.PhaseInput{Now: simtime.Instant(2 * time.Millisecond), Batch: batch, Loads: loads})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != len(batch) {
		t.Fatalf("scheduled %d of %d roomy tasks", len(res.Schedule), len(batch))
	}
	if res.Stats.Expanded <= 1 {
		t.Errorf("the DFS expanded %d vertex under the GA's bound: pruned at the root (%+v)", res.Stats.Expanded, res.Stats)
	}
	for _, a := range res.Schedule {
		if a.Proc == 3 {
			t.Errorf("task %d scheduled on the dead worker", a.Task.ID)
		}
	}
}
