package livecluster

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/db"
	"rtsads/internal/experiment"
	"rtsads/internal/faultinject"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// liveParams is a small workload that a live run finishes in well under a
// second of wall time.
func liveParams(workers int) workload.Params {
	p := workload.DefaultParams(workers)
	p.NumTransactions = 60
	p.DB = db.Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 10, KeyAttr: 0}
	return p
}

func TestClock(t *testing.T) {
	if _, err := NewClock(0); err == nil {
		t.Error("zero scale accepted")
	}
	clock, err := NewClock(2)
	if err != nil {
		t.Fatal(err)
	}
	a := clock.Now()
	time.Sleep(10 * time.Millisecond)
	b := clock.Now()
	elapsed := b.Sub(a)
	// 10ms wall at scale 2 is ~5ms virtual; allow generous slop.
	if elapsed < 3*time.Millisecond || elapsed > 20*time.Millisecond {
		t.Errorf("virtual elapsed %v, want ~5ms", elapsed)
	}
	target := clock.Now().Add(4 * time.Millisecond)
	clock.SleepUntil(target)
	if clock.Now().Before(target) {
		t.Error("SleepUntil returned early")
	}
}

func TestClockAt(t *testing.T) {
	start := time.Now().Add(-time.Second)
	clock, err := NewClockAt(start, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() < simtime.Instant(900*time.Millisecond) {
		t.Errorf("shared-epoch clock reads %v, want ~1s", clock.Now())
	}
	if clock.Start() != start || clock.Scale() != 1 {
		t.Error("accessors wrong")
	}
}

func TestWorkerHoldsPlacementReplicas(t *testing.T) {
	w, err := workload.Generate(liveParams(3))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		wk := NewWorker(id, clock, w)
		for sub, set := range w.Placement {
			if got, want := wk.HasReplica(sub), set.Has(id); got != want {
				t.Errorf("worker %d replica of sub %d = %v, placement says %v", id, sub, got, want)
			}
		}
	}
}

func TestWorkerExecutesJobs(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	wk := NewWorker(0, clock, w)
	jobs := newReadyQueue()
	done := make(chan Done, 2)
	go func() {
		wk.Run(jobs, done)
		close(done)
	}()
	tk := w.Tasks[0]
	jobs.push(Job{Task: int32(tk.ID), Txn: tk.Payload, Proc: tk.Proc, Deadline: simtime.Never})
	hostile := hostileTxns(w)
	for _, txn := range hostile {
		jobs.push(Job{Task: 999, Txn: txn, Proc: time.Millisecond, Deadline: simtime.Never})
	}
	jobs.close()

	first := <-done
	if first.Task != int32(tk.ID) || first.Err != "" {
		t.Fatalf("first completion: %+v", first)
	}
	if first.Expired {
		t.Error("job with no deadline pressure refused at the queue head")
	}
	if first.Finish.Sub(first.Start) < tk.Proc {
		t.Errorf("job occupied %v, want at least %v", first.Finish.Sub(first.Start), tk.Proc)
	}
	for _, txn := range hostile {
		d := <-done
		if want := fmt.Sprintf("unknown transaction %d", txn); d.Task != 999 || d.Err != want || d.Matches != 0 {
			t.Errorf("job with Txn %d completed as %+v, want Err %q", txn, d, want)
		}
	}
	if _, open := <-done; open {
		t.Error("done channel not closed after Run returned")
	}
}

// hostileTxns are Job.Txn values no table holds: a Jobs frame is remote
// input, so the worker must answer each with an error, never index with it.
func hostileTxns(w *workload.Workload) []int32 {
	return []int32{-1, math.MinInt32, int32(w.NumTxns()), math.MaxInt32}
}

// TestWorkerExecuteAllocatesNothing: a worker draws each job's transaction
// into its own predicates, so executing a job allocates nothing, against a
// local replica or a remote sub-database alike — and finds what the table's
// transaction finds.
func TestWorkerExecuteAllocatesNothing(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	wk := NewWorker(0, clock, w)
	tested := map[bool]bool{}
	for _, tk := range w.Tasks {
		q := w.Txn(tk)
		local := wk.HasReplica(q.Sub)
		if tested[local] {
			continue
		}
		tested[local] = true
		want, err := w.DB.Execute(w.DB.Subs[q.Sub], q)
		if err != nil {
			t.Fatal(err)
		}
		j := Job{Task: int32(tk.ID), Txn: tk.Payload}
		if d := wk.execute(j); d.Err != "" || d.Matches != want.Matches {
			t.Fatalf("local=%v: task %d executed as %+v, want %d matches", local, tk.ID, d, want.Matches)
		}
		if allocs := testing.AllocsPerRun(100, func() { wk.execute(j) }); allocs != 0 {
			t.Errorf("local=%v: executing a job makes %v allocations, want 0", local, allocs)
		}
	}
	if !tested[true] || !tested[false] {
		t.Fatalf("workload gives worker 0 no local and remote transaction to test (%v)", tested)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing workload accepted")
	}
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workload: w, Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
	c, err := New(Config{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Algorithm != experiment.RTSADS || c.cfg.Scale != 20 || c.cfg.Policy == nil {
		t.Error("defaults not applied")
	}
}

func TestClusterRunInProcess(t *testing.T) {
	w, err := workload.Generate(liveParams(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workload: w, Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(w.Tasks) {
		t.Fatalf("total = %d, want %d", res.Total, len(w.Tasks))
	}
	if err := res.Balance(); err != nil {
		t.Error(err)
	}
	if res.Hits == 0 {
		t.Error("live cluster completed nothing by deadline")
	}
	// §4.3 on real timers: a schedule with less slack than its worker's
	// wake-up latency misses. Measured 2026-10-03 on the 2-core box: 100
	// runs without -race, 0 of 60 tasks in every one; 120 runs with -race, 0
	// of 60 in 113, 1 in three, 2 in one, 3 in three (a build on runtime
	// timers also drew a 3 in 60 -race runs: these are stalls of the box,
	// not timer grain). 3 of 60 is the smallest budget every run passed.
	t.Logf("scheduled misses: %d of %d", res.ScheduledMissed, res.Total)
	if float64(res.ScheduledMissed) > 0.05*float64(res.Total) {
		t.Errorf("too many scheduled misses under jitter: %d of %d", res.ScheduledMissed, res.Total)
	}
	if res.Phases == 0 || res.SchedulingTime <= 0 {
		t.Errorf("no scheduling activity recorded: %s", res)
	}
}

func TestClusterRunAllAlgorithms(t *testing.T) {
	for _, algo := range experiment.Algorithms() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			w, err := workload.Generate(liveParams(3))
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(Config{Workload: w, Scale: 50, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Hits == 0 {
				t.Errorf("%s completed nothing", algo)
			}
		})
	}
}

func TestClusterUnknownAlgorithm(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workload: w, Algorithm: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("unknown algorithm accepted at run time")
	}
}

func TestClusterRunTCP(t *testing.T) {
	const workers = 3
	p := liveParams(workers)
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	// Start one TCP worker per processor on loopback.
	addrs := make([]string, workers)
	serveErr := make(chan error, workers)
	for i := 0; i < workers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		addrs[i] = lis.Addr().String()
		go func() { serveErr <- ServeWorker(lis) }()
	}

	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Backend: func(clock *Clock, inj *faultinject.Injector) (Backend, error) {
			return NewTCPBackend(clock, w, addrs, TCPOptions{Inject: inj})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits == 0 {
		t.Error("TCP cluster completed nothing")
	}
	if err := res.Balance(); err != nil {
		t.Error(err)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-serveErr:
			if err != nil {
				t.Errorf("worker exited with: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit after bye")
		}
	}
}

func TestTCPBackendAddressMismatch(t *testing.T) {
	w, err := workload.Generate(liveParams(3))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTCPBackend(clock, w, []string{"127.0.0.1:1"}, TCPOptions{}); err == nil {
		t.Error("address/worker count mismatch accepted")
	}
}

func TestChannelBackendDeliverRange(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBoundedChannelBackend(clock, w, 0, nil, nil)
	if err := b.Deliver(5, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := b.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, open := <-b.Done(); open {
		t.Error("done channel not closed")
	}
}

// originProbe is EDF-greedy reporting, at each PlanPhase entry, how far the
// run's clock is from where the phase's own clock says it is.
type originProbe struct {
	core.Planner
	elapsed func() time.Duration // SearchConfig.Clock: the phase's spent quantum
	probe   *originProbeLog
}

type originProbeLog struct {
	clock *Clock
	batch int           // the largest batch seen
	skew  time.Duration // clock.Now() − (in.Now + elapsed()) on that phase
}

func (p *originProbe) PlanPhase(in core.PhaseInput) (core.PhaseResult, error) {
	if l := p.probe; len(in.Batch) > l.batch {
		l.batch = len(in.Batch)
		l.skew = l.clock.Now().Sub(in.Now.Add(p.elapsed()))
	}
	return p.Planner.PlanPhase(in)
}

// The policy registry is process-wide, so the probe is registered once and
// pointed at the running test's log.
var (
	originProbeOnce sync.Once
	originProbeTo   atomic.Pointer[originProbeLog]
)

const originProbeAlgorithm = "test-origin-probe"

// TestPhaseBudgetStartsAtNow: the quantum is spent from the instant the plan
// is tested against. A burst of 250 arrivals costs the host ≈200 µs of
// journal writes between reading now and calling the planner; when the phase
// clock started only after them, in.Now + Clock() trailed the real clock by
// exactly that absorb time and every burst phase ended that far past
// Now + Qs. Two reads of one clock agree within a few microseconds.
func TestPhaseBudgetStartsAtNow(t *testing.T) {
	originProbeOnce.Do(func() {
		err := policy.Default().Register(policy.Spec{
			Name:        originProbeAlgorithm,
			Description: "EDF-greedy behind a phase-clock probe (tests only)",
			New: func(o policy.Options) (core.Planner, error) {
				inner, err := core.NewEDFGreedy(o.Search)
				if err != nil {
					return nil, err
				}
				return &originProbe{Planner: inner, elapsed: o.Search.Clock, probe: originProbeTo.Load()}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	const burst, tolerance = 250, 25 * time.Microsecond
	p := liveParams(4)
	p.NumTransactions = burst
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		// One burst, after the workers have started; every deadline finite so
		// the backlog is purged rather than waited on.
		tk.Arrival, tk.Deadline = simtime.Instant(5*time.Millisecond), simtime.Instant(50*time.Millisecond)
	}
	onQuietBox(t, func() error {
		clock, err := NewClock(1)
		if err != nil {
			t.Fatal(err)
		}
		log := &originProbeLog{clock: clock}
		originProbeTo.Store(log)
		c, err := New(Config{Workload: w, Clock: clock, Algorithm: originProbeAlgorithm, Obs: obs.New(0)})
		if err != nil {
			t.Fatal(err)
		}
		runWithDeadline(t, c)
		if log.batch != burst {
			return fmt.Errorf("largest batch planned was %d tasks, want the whole burst of %d", log.batch, burst)
		}
		if log.skew < -tolerance || log.skew > tolerance {
			return fmt.Errorf("at PlanPhase entry after absorbing %d tasks the clock read %v past in.Now + Clock(), want within %v",
				burst, log.skew, tolerance)
		}
		return nil
	})
}

func TestTCPDeliverOutOfRange(t *testing.T) {
	w, err := workload.Generate(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeWorker(lis) }()
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPBackend(clock, w, []string{lis.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deliver(5, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := b.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	<-serveErr
}

// TestLoadChangedCoalesces: an externally-fed cluster raises LoadChanged
// when its published load view moves, and the host loop never waits for a
// receiver — with none (an in-process shard) a whole run's publications
// collapse into the one buffered tick, and the view it announces is the
// final one.
func TestLoadChangedCoalesces(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(5)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Workload: w, Clock: clock, Scale: 5, External: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-cl.LoadChanged():
		t.Fatal("tick pending before the host loop published anything")
	default:
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		done <- err
	}()
	for _, t0 := range w.Tasks {
		c := *t0
		c.Arrival = clock.Now()
		c.Deadline = c.Arrival.Add(time.Second)
		if err := cl.SubmitBatch([]*task.Task{&c}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Seal()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish with nobody receiving LoadChanged")
	}
	select {
	case <-cl.LoadChanged():
	default:
		t.Fatal("no tick pending after a run that published changing views")
	}
	select {
	case <-cl.LoadChanged():
		t.Fatal("more than one tick buffered")
	default:
	}
	if s := cl.LoadSummary(); !s.Sealed || s.Backlog != 0 || s.Inflight != 0 {
		t.Fatalf("final view %+v, want sealed and drained", s)
	}
}

// stallOnce is EDF-greedy behind a host that stalls through its first
// phase: the quantum runs out before the first expansion, so that phase
// schedules nothing without having proved anything.
type stallOnce struct {
	core.Planner
	stalled bool
}

func (p *stallOnce) PlanPhase(in core.PhaseInput) (core.PhaseResult, error) {
	if !p.stalled {
		p.stalled = true
		return core.PhaseResult{Quantum: 50 * time.Microsecond, Used: 50 * time.Microsecond,
			Stats: search.Stats{Expired: true}}, nil
	}
	return p.Planner.PlanPhase(in)
}

var stallOnceRegister sync.Once

// TestExpiredEmptyPhaseReplans: an empty phase whose quantum expired is no
// proof that the batch is infeasible. The host used to sleep to the nearest
// purge point after it — with idle workers and a one-hour deadline, an hour.
func TestExpiredEmptyPhaseReplans(t *testing.T) {
	const algo = "test-stall-once"
	stallOnceRegister.Do(func() {
		err := policy.Default().Register(policy.Spec{
			Name:        algo,
			Description: "EDF-greedy whose first phase stalls (tests only)",
			New: func(o policy.Options) (core.Planner, error) {
				inner, err := core.NewEDFGreedy(o.Search)
				return &stallOnce{Planner: inner}, err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	p := liveParams(1)
	p.NumTransactions = 1
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	w.Tasks[0].Arrival, w.Tasks[0].Deadline = 0, simtime.Instant(time.Hour)
	c, err := New(Config{Workload: w, Scale: 1, Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var res *metrics.RunResult
	go func() {
		var err error
		res, err = c.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		c.Stop(0)
		<-done
		t.Fatal("host idled after an expired empty phase instead of planning again")
	}
	if res.Hits != 1 || res.Phases != 2 {
		t.Errorf("want the task planned by the second phase and hit, got %s", res)
	}
}

// TestCompletionsNeverBlockReporters: with nobody reading, every reporter
// still hands over all its completions — a worker never waits on a host
// busy planning. The reader then gets each one once, in each reporter's
// order, and close returns after the last.
func TestCompletionsNeverBlockReporters(t *testing.T) {
	const reporters, each = 4, 500
	c := newCompletions(reporters)
	var wg sync.WaitGroup
	for r := 0; r < reporters; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.in <- Done{Task: int32(i), Worker: r}
			}
		}()
	}
	wg.Wait() // hangs if a reporter blocks on the unread stream
	closed := make(chan struct{})
	go func() {
		c.close()
		close(closed)
	}()
	next := make([]int32, reporters)
	for d := range c.out {
		if d.Task != next[d.Worker] {
			t.Fatalf("reporter %d: got completion %d, want %d", d.Worker, d.Task, next[d.Worker])
		}
		next[d.Worker]++
	}
	<-closed
	for r, n := range next {
		if n != each {
			t.Errorf("reporter %d: read %d of %d completions", r, n, each)
		}
	}
}
