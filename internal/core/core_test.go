package core

import (
	"slices"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

const (
	ms = time.Millisecond
	us = time.Microsecond
)

func mkTask(id task.ID, proc time.Duration, deadline simtime.Instant, procs ...int) *task.Task {
	return &task.Task{ID: id, Proc: proc, Deadline: deadline, Affinity: affinity.NewSet(procs...)}
}

func commOf(remote time.Duration) CommFunc {
	m := affinity.CostModel{Remote: remote}
	return func(t *task.Task, proc int) time.Duration { return m.Cost(t.Affinity, proc) }
}

func testConfig(workers int) SearchConfig {
	return SearchConfig{
		Workers:    workers,
		Comm:       commOf(ms),
		VertexCost: us,
		Policy:     NewAdaptive(),
	}
}

func TestAdaptiveQuantumMaxOfSlackAndLoad(t *testing.T) {
	bounds := Bounds{Min: 0, Max: time.Hour}
	pol := Adaptive{Bounds: bounds}
	in := PhaseInput{
		Now: 0,
		Batch: []*task.Task{
			mkTask(1, ms, simtime.Instant(5*ms), 0), // slack 4ms
			mkTask(2, ms, simtime.Instant(9*ms), 0), // slack 8ms
		},
		Loads: []time.Duration{6 * ms, 2 * ms}, // min load 2ms
	}
	// Min_Slack = 4ms > Min_Load = 2ms.
	if got := pol.Quantum(in); got != 4*ms {
		t.Errorf("Quantum = %v, want 4ms (Min_Slack)", got)
	}
	// Raise the idle worker's load above the slack: Min_Load wins.
	in.Loads = []time.Duration{6 * ms, 5 * ms}
	if got := pol.Quantum(in); got != 5*ms {
		t.Errorf("Quantum = %v, want 5ms (Min_Load)", got)
	}
}

func TestAdaptiveQuantumClamped(t *testing.T) {
	pol := Adaptive{Bounds: Bounds{Min: ms, Max: 2 * ms}}
	in := PhaseInput{
		Batch: []*task.Task{mkTask(1, ms, simtime.Instant(100*ms), 0)}, // slack 99ms
		Loads: []time.Duration{0},
	}
	if got := pol.Quantum(in); got != 2*ms {
		t.Errorf("Quantum = %v, want Max clamp 2ms", got)
	}
	in.Batch = []*task.Task{mkTask(1, ms, simtime.Instant(ms), 0)} // slack 0
	if got := pol.Quantum(in); got != ms {
		t.Errorf("Quantum = %v, want Min clamp 1ms", got)
	}
}

func TestAdaptiveNegativeSlackFlooredAtZero(t *testing.T) {
	pol := Adaptive{Bounds: Bounds{Min: 0, Max: time.Hour}}
	in := PhaseInput{
		Now:   simtime.Instant(10 * ms),
		Batch: []*task.Task{mkTask(1, 5*ms, simtime.Instant(ms), 0)}, // hopeless
		Loads: []time.Duration{3 * ms},
	}
	// Min_Slack floors at 0; Min_Load = 3ms wins.
	if got := pol.Quantum(in); got != 3*ms {
		t.Errorf("Quantum = %v, want 3ms", got)
	}
}

func TestSlackOnlyAndLoadOnly(t *testing.T) {
	in := PhaseInput{
		Batch: []*task.Task{mkTask(1, ms, simtime.Instant(5*ms), 0)}, // slack 4ms
		Loads: []time.Duration{7 * ms},
	}
	bounds := Bounds{Min: 0, Max: time.Hour}
	if got := (SlackOnly{Bounds: bounds}).Quantum(in); got != 4*ms {
		t.Errorf("SlackOnly = %v, want 4ms", got)
	}
	if got := (LoadOnly{Bounds: bounds}).Quantum(in); got != 7*ms {
		t.Errorf("LoadOnly = %v, want 7ms", got)
	}
}

func TestFixedQuantum(t *testing.T) {
	pol := Fixed{D: 3 * ms}
	if got := pol.Quantum(PhaseInput{}); got != 3*ms {
		t.Errorf("Fixed = %v, want 3ms", got)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]QuantumPolicy{
		"adaptive":   NewAdaptive(),
		"slack-only": SlackOnly{},
		"load-only":  LoadOnly{},
	}
	for want, pol := range names {
		if pol.Name() != want {
			t.Errorf("policy name %q, want %q", pol.Name(), want)
		}
	}
	if (Fixed{D: ms}).Name() == "" {
		t.Error("Fixed name empty")
	}
}

func TestEmptyInputsQuantum(t *testing.T) {
	pol := Adaptive{Bounds: Bounds{Min: 50 * us, Max: time.Hour}}
	if got := pol.Quantum(PhaseInput{}); got != 50*us {
		t.Errorf("empty-input quantum = %v, want the floor", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(2).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*SearchConfig)
	}{
		{"no workers", func(c *SearchConfig) { c.Workers = 0 }},
		{"nil comm", func(c *SearchConfig) { c.Comm = nil }},
		{"no budget", func(c *SearchConfig) { c.VertexCost = 0 }},
		{"nil policy", func(c *SearchConfig) { c.Policy = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := testConfig(2)
			tt.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestConstructorsRejectInvalidConfig(t *testing.T) {
	bad := testConfig(0)
	if _, err := NewRTSADS(bad); err == nil {
		t.Error("NewRTSADS accepted invalid config")
	}
	if _, err := NewDCOLS(bad); err == nil {
		t.Error("NewDCOLS accepted invalid config")
	}
	if _, err := NewEDFGreedy(bad); err == nil {
		t.Error("NewEDFGreedy accepted invalid config")
	}
	if _, err := NewMyopic(bad, 7, 1); err == nil {
		t.Error("NewMyopic accepted invalid config")
	}
	if _, err := NewMyopic(testConfig(2), 0, 1); err == nil {
		t.Error("NewMyopic accepted zero window")
	}
	if _, err := NewMyopic(testConfig(2), 7, -1); err == nil {
		t.Error("NewMyopic accepted negative weight")
	}
	if _, err := NewSearchPlanner(testConfig(2), nil, "x"); err == nil {
		t.Error("NewSearchPlanner accepted nil representation")
	}
}

func allPlanners(t *testing.T, workers int) []Planner {
	t.Helper()
	cfg := testConfig(workers)
	rtsads, err := NewRTSADS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcols, err := NewDCOLS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewEDFGreedy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	myopic, err := NewMyopic(cfg, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []Planner{rtsads, dcols, greedy, myopic}
}

// verifyGuarantee re-derives each assignment's completion bound and checks
// the §4.3 theorem precondition: phaseEnd + EndOffset <= deadline.
func verifyGuarantee(t *testing.T, name string, in PhaseInput, res PhaseResult) {
	t.Helper()
	phaseEnd := in.Now.Add(res.Quantum)
	loads := make([]time.Duration, len(in.Loads))
	for k, l := range in.Loads {
		loads[k] = simtime.NonNeg(l - res.Quantum)
	}
	seen := map[task.ID]bool{}
	for _, a := range res.Schedule {
		if seen[a.Task.ID] {
			t.Fatalf("%s: task %d scheduled twice", name, a.Task.ID)
		}
		seen[a.Task.ID] = true
		loads[a.Proc] += a.Task.Proc + a.Comm
		if loads[a.Proc] != a.EndOffset {
			t.Fatalf("%s: task %d end offset %v, recomputed %v", name, a.Task.ID, a.EndOffset, loads[a.Proc])
		}
		if phaseEnd.Add(a.EndOffset).After(a.Task.Deadline) {
			t.Fatalf("%s: task %d violates the deadline guarantee", name, a.Task.ID)
		}
	}
}

func TestAllPlannersScheduleFeasibleBatch(t *testing.T) {
	for _, p := range allPlanners(t, 3) {
		in := PhaseInput{
			Now: 0,
			Batch: []*task.Task{
				mkTask(1, 2*ms, simtime.Instant(40*ms), 0),
				mkTask(2, ms, simtime.Instant(50*ms), 1),
				mkTask(3, 3*ms, simtime.Instant(60*ms), 2),
				mkTask(4, ms, simtime.Instant(70*ms), 0, 1),
			},
			Loads: make([]time.Duration, 3),
		}
		res, err := p.PlanPhase(in)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Schedule) != 4 {
			t.Errorf("%s scheduled %d of 4 tasks", p.Name(), len(res.Schedule))
		}
		if res.Used > res.Quantum {
			t.Errorf("%s used %v > quantum %v", p.Name(), res.Used, res.Quantum)
		}
		verifyGuarantee(t, p.Name(), in, res)
	}
}

func TestAllPlannersRespectLoadMismatch(t *testing.T) {
	for _, p := range allPlanners(t, 3) {
		in := PhaseInput{Loads: make([]time.Duration, 2)} // wrong worker count
		if _, err := p.PlanPhase(in); err == nil {
			t.Errorf("%s accepted a load/worker mismatch", p.Name())
		}
	}
}

func TestAllPlannersLeaveHopelessTasksUnscheduled(t *testing.T) {
	for _, p := range allPlanners(t, 2) {
		in := PhaseInput{
			Now: 0,
			Batch: []*task.Task{
				mkTask(1, 50*ms, simtime.Instant(ms), 0), // impossible
				mkTask(2, ms, simtime.Instant(100*ms), 1),
			},
			Loads: make([]time.Duration, 2),
		}
		res, err := p.PlanPhase(in)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for _, a := range res.Schedule {
			if a.Task.ID == 1 {
				t.Errorf("%s scheduled an impossible task", p.Name())
			}
		}
		verifyGuarantee(t, p.Name(), in, res)
	}
}

func TestSearchPlannersCountVertices(t *testing.T) {
	cfg := testConfig(2)
	rtsads, err := NewRTSADS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := PhaseInput{
		Now: 0,
		Batch: []*task.Task{
			mkTask(1, ms, simtime.Instant(30*ms), 0),
			mkTask(2, ms, simtime.Instant(40*ms), 1),
		},
		Loads: make([]time.Duration, 2),
	}
	res, err := rtsads.PlanPhase(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Generated == 0 {
		t.Error("no vertices counted")
	}
	if res.Used != time.Duration(res.Stats.Generated)*cfg.VertexCost {
		t.Errorf("Used %v does not match %d × VertexCost", res.Used, res.Stats.Generated)
	}
}

func TestPlannersDeterministic(t *testing.T) {
	mkInput := func() PhaseInput {
		return PhaseInput{
			Now: 0,
			Batch: []*task.Task{
				mkTask(1, 2*ms, simtime.Instant(40*ms), 0),
				mkTask(2, ms, simtime.Instant(40*ms), 1),
				mkTask(3, 3*ms, simtime.Instant(60*ms), 0),
			},
			Loads: make([]time.Duration, 2),
		}
	}
	for _, p := range allPlanners(t, 2) {
		a, err := p.PlanPhase(mkInput())
		if err != nil {
			t.Fatal(err)
		}
		a.Schedule = slices.Clone(a.Schedule) // the next phase may reuse its storage
		b, err := p.PlanPhase(mkInput())
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Schedule) != len(b.Schedule) || a.Used != b.Used {
			t.Fatalf("%s not deterministic", p.Name())
		}
		for i := range a.Schedule {
			if a.Schedule[i].Task.ID != b.Schedule[i].Task.ID || a.Schedule[i].Proc != b.Schedule[i].Proc {
				t.Fatalf("%s produced different schedules for identical inputs", p.Name())
			}
		}
	}
}

func TestPlannerNames(t *testing.T) {
	want := map[string]bool{"RT-SADS": true, "D-COLS": true, "EDF-greedy": true, "myopic": true}
	for _, p := range allPlanners(t, 2) {
		if !want[p.Name()] {
			t.Errorf("unexpected planner name %q", p.Name())
		}
	}
}

func TestGreedyPicksEarliestCompletion(t *testing.T) {
	cfg := testConfig(2)
	cfg.Policy = Fixed{D: ms}
	greedy, err := NewEDFGreedy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 is heavily pre-loaded; the task is affine with both.
	in := PhaseInput{
		Now:   0,
		Batch: []*task.Task{mkTask(1, ms, simtime.Instant(100*ms), 0, 1)},
		Loads: []time.Duration{20 * ms, 0},
	}
	res, err := greedy.PlanPhase(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != 1 || res.Schedule[0].Proc != 1 {
		t.Errorf("greedy chose worker %d, want the idle worker 1", res.Schedule[0].Proc)
	}
}

func TestMyopicWindowSkipsHopelessHead(t *testing.T) {
	cfg := testConfig(1)
	myopic, err := NewMyopic(cfg, 1, 1) // window of 1: strictly EDF-ordered
	if err != nil {
		t.Fatal(err)
	}
	in := PhaseInput{
		Now: 0,
		Batch: []*task.Task{
			mkTask(1, 50*ms, simtime.Instant(ms), 0), // hopeless, earliest deadline
			mkTask(2, ms, simtime.Instant(100*ms), 0),
		},
		Loads: []time.Duration{0},
	}
	res, err := myopic.PlanPhase(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != 1 || res.Schedule[0].Task.ID != 2 {
		t.Errorf("myopic did not skip past the hopeless head: %+v", res.Schedule)
	}
}

func TestNewSearchPlannerCustomRep(t *testing.T) {
	p, err := NewSearchPlanner(testConfig(2), newAssignmentRep(testConfig(2)), "custom")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "custom" {
		t.Errorf("Name = %q", p.Name())
	}
	in := PhaseInput{
		Now:   0,
		Batch: []*task.Task{mkTask(1, ms, simtime.Instant(40*ms), 0)},
		Loads: make([]time.Duration, 2),
	}
	res, err := p.PlanPhase(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != 1 {
		t.Errorf("custom planner scheduled %d tasks", len(res.Schedule))
	}
}

// A warm search planner plans the §5.1 burst — 1 000 tasks on ten workers —
// phase after phase without allocating, and its searcher's free list stops
// growing: every vertex a search takes, the root and Best's path included,
// goes back to it.
func TestWarmSearchPlannerRecyclesEveryVertex(t *testing.T) {
	params := workload.DefaultParams(10)
	params.NumTransactions = 1000
	w, err := workload.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(10)
	cfg.Comm = func(t *task.Task, proc int) time.Duration { return w.Cost.Cost(t.Affinity, proc) }
	cfg.PhaseCost = 25 * us
	for name, mk := range map[string]func(SearchConfig) (Planner, error){"RT-SADS": NewRTSADS, "D-COLS": NewDCOLS} {
		t.Run(name, func(t *testing.T) {
			pl, err := mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp := pl.(*searchPlanner)
			batch := make([]*task.Task, len(w.Tasks))
			in := PhaseInput{Batch: batch, Loads: make([]time.Duration, 10)}
			scheduled := 0
			phase := func() {
				copy(batch, w.Tasks) // a fresh, unsorted burst every phase
				res, err := sp.PlanPhase(in)
				if err != nil {
					t.Fatal(err)
				}
				scheduled = len(res.Schedule)
			}
			phase()
			warm := sp.searcher.FreeVertices()
			if scheduled == 0 || warm == 0 {
				t.Fatalf("the burst scheduled %d tasks and left %d free vertices; the test needs both", scheduled, warm)
			}
			allocs := testing.AllocsPerRun(1000, phase)
			if got := sp.searcher.FreeVertices(); got != warm {
				t.Errorf("the free list held %d vertices after one phase and %d after 1000 more", warm, got)
			}
			if allocs != 0 {
				t.Errorf("a warm phase allocated %v objects", allocs)
			}
		})
	}
}
