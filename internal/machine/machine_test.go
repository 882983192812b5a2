package machine

import (
	"cmp"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

const (
	ms = time.Millisecond
	us = time.Microsecond
)

func mkTask(id task.ID, arrival simtime.Instant, proc time.Duration, deadline simtime.Instant, procs ...int) *task.Task {
	return &task.Task{ID: id, Arrival: arrival, Proc: proc, Deadline: deadline, Affinity: affinity.NewSet(procs...)}
}

func plannerFor(t *testing.T, workers int, mk func(core.SearchConfig) (core.Planner, error)) core.Planner {
	t.Helper()
	model := affinity.CostModel{Remote: 500 * us}
	cfg := core.SearchConfig{
		Workers:    workers,
		Comm:       func(tk *task.Task, proc int) time.Duration { return model.Cost(tk.Affinity, proc) },
		VertexCost: us,
		Policy:     core.NewAdaptive(),
	}
	p, err := mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	p := plannerFor(t, 2, core.NewRTSADS)
	if _, err := New(Config{Workers: 0, Planner: p}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := New(Config{Workers: 2, Planner: nil}); err == nil {
		t.Error("nil planner accepted")
	}
	m, err := New(Config{Workers: 2, Planner: p})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.MinAdvance <= 0 || m.cfg.MaxPhases <= 0 {
		t.Error("defaults not applied")
	}
}

// runJournaled runs tasks under cfg with a journal attached and returns the
// result and the run's exec entries in journal order: the journal is the
// one per-task record. An entry's Virtual is the task's start, and
// Virtual+Dur its finish.
func runJournaled(t *testing.T, cfg Config, tasks []*task.Task) (*metrics.RunResult, []obs.Entry) {
	t.Helper()
	cfg.Obs = obs.New(0)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	j := cfg.Obs.Journal()
	if n := j.Evicted(); n != 0 {
		t.Fatalf("journal evicted %d entries", n)
	}
	var execs []obs.Entry
	for _, e := range j.Snapshot() {
		if e.Type == "exec" {
			execs = append(execs, e)
		}
	}
	return res, execs
}

func TestRunEmptyWorkload(t *testing.T) {
	m, err := New(Config{Workers: 2, Planner: plannerFor(t, 2, core.NewRTSADS)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 || res.Hits != 0 || res.Phases != 0 {
		t.Errorf("empty run produced %+v", res)
	}
}

func TestRunSchedulesEverythingFeasible(t *testing.T) {
	tasks := []*task.Task{
		mkTask(1, 0, ms, simtime.Instant(50*ms), 0),
		mkTask(2, 0, 2*ms, simtime.Instant(60*ms), 1),
		mkTask(3, 0, ms, simtime.Instant(70*ms), 0, 1),
	}
	res, execs := runJournaled(t, Config{Workers: 2, Planner: plannerFor(t, 2, core.NewRTSADS)}, tasks)
	if res.Hits != 3 || res.Purged != 0 || res.ScheduledMissed != 0 {
		t.Fatalf("result: %s", res)
	}
	if res.Makespan == 0 {
		t.Error("makespan not recorded")
	}
	if len(execs) != 3 {
		t.Errorf("journaled %d executions, want 3", len(execs))
	}
	for _, e := range execs {
		if !e.Hit {
			t.Errorf("execution %+v should be a hit", e)
		}
		if e.Dur < 0 {
			t.Errorf("execution %+v finishes before it starts", e)
		}
	}
}

func TestRunPurgesHopelessTasks(t *testing.T) {
	tasks := []*task.Task{
		mkTask(1, 0, 50*ms, simtime.Instant(ms), 0), // impossible from the start
		mkTask(2, 0, ms, simtime.Instant(80*ms), 0),
	}
	m, err := New(Config{Workers: 1, Planner: plannerFor(t, 1, core.NewRTSADS)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Purged != 1 {
		t.Errorf("purged = %d, want 1", res.Purged)
	}
	if res.Hits != 1 {
		t.Errorf("hits = %d, want 1", res.Hits)
	}
	if res.ScheduledMissed != 0 {
		t.Errorf("scheduled-missed = %d, theorem violated", res.ScheduledMissed)
	}
}

func TestRunHandlesLateArrivals(t *testing.T) {
	tasks := []*task.Task{
		mkTask(1, 0, ms, simtime.Instant(50*ms), 0),
		mkTask(2, simtime.Instant(20*ms), ms, simtime.Instant(70*ms), 0),
		mkTask(3, simtime.Instant(40*ms), ms, simtime.Instant(90*ms), 0),
	}
	res, execs := runJournaled(t, Config{Workers: 1, Planner: plannerFor(t, 1, core.NewRTSADS)}, tasks)
	if res.Hits != 3 {
		t.Fatalf("hits = %d, want 3: %s", res.Hits, res)
	}
	// No task may start before it arrives (plus a scheduling phase).
	for _, e := range execs {
		var arr simtime.Instant
		for _, tk := range tasks {
			if int(tk.ID) == e.Task {
				arr = tk.Arrival
			}
		}
		if e.Virtual.Before(arr) {
			t.Errorf("task %d started at %v before arriving at %v", e.Task, e.Virtual, arr)
		}
	}
}

func TestRunAccountingInvariant(t *testing.T) {
	// An overloaded single worker: some tasks hit, the rest must be purged,
	// and every task must be accounted for exactly once.
	var tasks []*task.Task
	for i := 0; i < 50; i++ {
		tasks = append(tasks, mkTask(task.ID(i), 0, ms, simtime.Instant(10*ms), 0))
	}
	m, err := New(Config{Workers: 1, Planner: plannerFor(t, 1, core.NewRTSADS)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Balance(); err != nil {
		t.Error(err)
	}
	if res.ScheduledMissed != 0 {
		t.Errorf("theorem violated: %d scheduled tasks missed", res.ScheduledMissed)
	}
	if res.Hits == 0 || res.Purged == 0 {
		t.Errorf("expected a mix of hits and purges under overload: %s", res)
	}
}

// TestTheoremAllPlanners is experiment E5: across planners and many random
// workloads, no scheduled task ever misses its deadline during execution.
func TestTheoremAllPlanners(t *testing.T) {
	makers := map[string]func(core.SearchConfig) (core.Planner, error){
		"rtsads": core.NewRTSADS,
		"dcols":  core.NewDCOLS,
		"greedy": core.NewEDFGreedy,
		"myopic": func(c core.SearchConfig) (core.Planner, error) { return core.NewMyopic(c, 7, 1) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				p := workload.DefaultParams(4)
				p.Seed = seed
				p.NumTransactions = 120
				w, err := workload.Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				planner := plannerFor(t, 4, mk)
				m, err := New(Config{Workers: 4, Planner: planner})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run(w.Tasks)
				if err != nil {
					t.Fatal(err)
				}
				if res.ScheduledMissed != 0 {
					t.Errorf("seed %d: %d scheduled tasks missed their deadlines", seed, res.ScheduledMissed)
				}
				if err := res.Balance(); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 150
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *metrics.RunResult {
		m, err := New(Config{Workers: 3, Planner: plannerFor(t, 3, core.NewRTSADS)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(w.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Hits != b.Hits || a.Phases != b.Phases || a.SchedulingTime != b.SchedulingTime ||
		a.Makespan != b.Makespan || a.VerticesGenerated != b.VerticesGenerated {
		t.Errorf("runs differ:\n%s\n%s", a, b)
	}
}

func TestWorkerBusyConsistent(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 100
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, execs := runJournaled(t, Config{Workers: 3, Planner: plannerFor(t, 3, core.NewRTSADS)}, w.Tasks)
	perProc := make([]time.Duration, 3)
	for _, e := range execs {
		perProc[e.Worker] += e.Dur
	}
	for k := range perProc {
		if perProc[k] != res.WorkerBusy[k] {
			t.Errorf("worker %d busy %v, executions sum %v", k, res.WorkerBusy[k], perProc[k])
		}
	}
	if res.Utilization() <= 0 || res.Utilization() > 1 {
		t.Errorf("utilization %v out of (0,1]", res.Utilization())
	}
}

func TestNonPreemptiveFIFOPerWorker(t *testing.T) {
	p := workload.DefaultParams(2)
	p.NumTransactions = 80
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	_, execs := runJournaled(t, Config{Workers: 2, Planner: plannerFor(t, 2, core.NewRTSADS)}, w.Tasks)
	// Executions are journaled in delivery order; per worker, execution
	// windows must not overlap.
	lastFinish := map[int]simtime.Instant{}
	for _, e := range execs {
		if e.Virtual.Before(lastFinish[e.Worker]) {
			t.Fatalf("worker %d: task %d starts at %v before previous finish %v",
				e.Worker, e.Task, e.Virtual, lastFinish[e.Worker])
		}
		lastFinish[e.Worker] = e.Virtual.Add(e.Dur)
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	p := workload.DefaultParams(2)
	p.NumTransactions = 50
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	m, err := New(Config{Workers: 2, Planner: plannerFor(t, 2, core.NewRTSADS), Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	entries, evicted := o.Journal().Export()
	if evicted != 0 {
		t.Fatalf("journal evicted %d entries of a 50-transaction run", evicted)
	}
	n := map[string]int{}
	for _, e := range entries {
		n[e.Type]++
	}
	for typ, want := range map[string]int{
		"arrival":     res.Total,
		"exec":        res.Hits + res.ScheduledMissed,
		"purge":       res.Purged,
		"phase-start": res.Phases,
		"deliver":     n["exec"], // deliveries match executions one to one
	} {
		if n[typ] != want {
			t.Errorf("journaled %d %s entries, want %d", n[typ], typ, want)
		}
	}
	// The Gantt renders without error and mentions both workers.
	var b strings.Builder
	if err := obs.Gantt(&b, entries, 2, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "worker  1") {
		t.Errorf("gantt missing workers:\n%s", b.String())
	}
}

// TestCrashShowsOnTheWorkersTrack: an injected crash must be visible in the
// rendered timeline — the lost tasks and the worker-down instant on the
// crashed worker's own track, at the crash instant.
func TestCrashShowsOnTheWorkersTrack(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 150
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	m, err := New(Config{
		Workers: 3,
		Planner: plannerFor(t, 3, core.NewRTSADS),
		FailAt:  map[int]simtime.Instant{1: simtime.Instant(2 * ms)},
		Obs:     o,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostToFailure == 0 {
		t.Fatal("the crash lost no task: the scenario does not exercise the lost instant")
	}
	var b strings.Builder
	entries, evicted := o.Journal().Export()
	if err := obs.WriteChromeTrace(&b, entries, evicted); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("chrome view is not valid JSON: %v", err)
	}
	var lost, down int
	for _, e := range events {
		name, _ := e["name"].(string)
		switch {
		case strings.HasPrefix(name, "lost task "):
			lost++
		case name == "worker 1 down":
			down++
		default:
			continue
		}
		if e["ph"] != "i" || e["tid"] != 1.0 || e["ts"] != 2000.0 {
			t.Errorf("%q = %v, want an instant on worker 1's track at the 2ms crash", name, e)
		}
	}
	if lost != res.LostToFailure || down != 1 {
		t.Errorf("chrome view shows %d lost and %d worker-down instants, want %d and 1", lost, down, res.LostToFailure)
	}
}

func TestReclaimingShortensBacklog(t *testing.T) {
	// Two tasks on one worker; the first finishes at half its WCET. With
	// reclaiming the second starts early; without, it waits the full slot.
	run := func(noReclaim bool) simtime.Instant {
		first := mkTask(1, 0, 10*ms, simtime.Instant(200*ms), 0)
		first.Actual = 5 * ms
		second := mkTask(2, 0, ms, simtime.Instant(200*ms), 0)
		_, execs := runJournaled(t, Config{
			Workers:   1,
			Planner:   plannerFor(t, 1, core.NewRTSADS),
			NoReclaim: noReclaim,
		}, []*task.Task{first, second})
		for _, e := range execs {
			if e.Task == 2 {
				return e.Virtual
			}
		}
		t.Fatal("task 2 never executed")
		return 0
	}
	withReclaim := run(false)
	withoutReclaim := run(true)
	if diff := withoutReclaim.Sub(withReclaim); diff < 4*ms {
		t.Errorf("reclaiming saved only %v, want ~5ms (start %v vs %v)",
			diff, withReclaim, withoutReclaim)
	}
}

func TestFailureInjection(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 200
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	failAt := simtime.Instant(2 * ms)
	res, execs := runJournaled(t, Config{
		Workers: 4,
		Planner: plannerFor(t, 4, core.NewRTSADS),
		FailAt:  map[int]simtime.Instant{0: failAt},
	}, w.Tasks)
	// Accounting covers the losses.
	if err := res.Balance(); err != nil {
		t.Error(err)
	}
	if res.ScheduledMissed != 0 {
		t.Errorf("theorem violated: %d scheduled misses", res.ScheduledMissed)
	}
	// No task may complete on the crashed worker after its crash time.
	for _, e := range execs {
		if finish := e.Virtual.Add(e.Dur); e.Worker == 0 && finish.After(failAt) {
			t.Errorf("task %d completed on the dead worker at %v", e.Task, finish)
		}
	}
	// The run must still make progress on the survivors.
	if res.Hits == 0 {
		t.Error("no hits despite three surviving workers")
	}
	baseline, err := New(Config{Workers: 4, Planner: plannerFor(t, 4, core.NewRTSADS)})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := baseline.Run(w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits >= bres.Hits {
		t.Errorf("failure run (%d hits) not below baseline (%d hits)", res.Hits, bres.Hits)
	}
	// Losing one of four workers must not collapse throughput: graceful
	// degradation, not a cliff.
	if float64(res.Hits) < 0.4*float64(bres.Hits) {
		t.Errorf("failure run collapsed: %d vs baseline %d", res.Hits, bres.Hits)
	}
}

func TestFailureAtTimeZero(t *testing.T) {
	// A worker dead from the start is simply never used.
	tasks := []*task.Task{
		mkTask(1, 0, ms, simtime.Instant(50*ms), 0, 1),
		mkTask(2, 0, ms, simtime.Instant(60*ms), 0, 1),
	}
	res, execs := runJournaled(t, Config{
		Workers: 2,
		Planner: plannerFor(t, 2, core.NewRTSADS),
		FailAt:  map[int]simtime.Instant{0: 0},
	}, tasks)
	if res.Hits != 2 || res.LostToFailure != 0 {
		t.Fatalf("result: %s", res)
	}
	for _, e := range execs {
		if e.Worker == 0 {
			t.Errorf("task %d placed on the worker that was dead from t=0", e.Task)
		}
	}
}

func TestCombinedHostStealsWorkerZero(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 150
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(combined bool) *metrics.RunResult {
		m, err := New(Config{
			Workers:      3,
			Planner:      plannerFor(t, 3, core.NewRTSADS),
			CombinedHost: combined,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(w.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dedicated := run(false)
	combined := run(true)
	if dedicated.ScheduledMissed != 0 {
		t.Errorf("dedicated host violated the guarantee: %d", dedicated.ScheduledMissed)
	}
	// Worker 0's effective capacity shrinks when it also schedules: it must
	// execute no more work than under a dedicated host.
	if combined.WorkerBusy[0] > dedicated.WorkerBusy[0] {
		t.Errorf("combined host did not steal worker 0's cycles: %v vs %v",
			combined.WorkerBusy[0], dedicated.WorkerBusy[0])
	}
	// Accounting still holds.
	if err := combined.Balance(); err != nil {
		t.Error(err)
	}
}

// TestWarmRunReusesScratch: every warm Run on one Machine reuses the host,
// arrival and search buffers of the first, so it allocates at most 8 KiB,
// and books the same run; an unordered task list runs exactly like its
// arrival-ordered copy.
func TestWarmRunReusesScratch(t *testing.T) {
	w, err := workload.Generate(workload.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Workers: 10, Planner: plannerFor(t, 10, core.NewRTSADS)})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tasks []*task.Task) *metrics.RunResult {
		res, err := m.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b *metrics.RunResult) bool {
		return a.Hits == b.Hits && a.Purged == b.Purged && a.Phases == b.Phases &&
			a.SchedulingTime == b.SchedulingTime && a.Makespan == b.Makespan &&
			a.VerticesGenerated == b.VerticesGenerated
	}
	first := run(w.Tasks)

	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		again := run(w.Tasks)
		runtime.ReadMemStats(&m1)
		if !same(first, again) {
			t.Fatalf("a warm run booked differently:\n%s\n%s", first, again)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 8<<10 {
			t.Errorf("a warm Run allocated %d B, want <= 8 KiB", got)
		}
	}

	unordered := slices.Clone(w.Tasks)
	slices.Reverse(unordered)
	ordered := slices.Clone(unordered)
	slices.SortStableFunc(ordered, func(a, b *task.Task) int { return cmp.Compare(a.Arrival, b.Arrival) })
	if a, b := run(unordered), run(ordered); !same(a, b) {
		t.Errorf("an unordered list ran differently from its ordered copy:\n%s\n%s", a, b)
	}
}
