package livecluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"rtsads/internal/faultinject"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// faultParams loosens the deadlines of liveParams: reclaimed tasks need
// enough slack left to be feasibly re-routed rather than written off.
func faultParams(workers int) workload.Params {
	p := liveParams(workers)
	p.SF = 4
	return p
}

// mustPlan parses a fault spec or fails the test.
func mustPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runWithDeadline runs the cluster on a goroutine and fails the test if the
// run does not finish — the one failure mode fault injection must never
// cause is a hang.
func runWithDeadline(t *testing.T, c *Cluster) *metrics.RunResult {
	t.Helper()
	type outcome struct {
		res *metrics.RunResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := c.Run()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run hung under fault injection")
		return nil
	}
}

// assertFaultAccounting checks the failure-aware bookkeeping invariant:
// every generated task lands in exactly one terminal bucket, and the shed
// reasons break the shed total down exactly.
func assertFaultAccounting(t *testing.T, res *metrics.RunResult) {
	t.Helper()
	if err := res.Balance(); err != nil {
		t.Error(err)
	}
}

// assertHitsVerified re-checks every execution journaled as a hit against
// the authoritative deadline in the workload: a "hit" must have verifiably
// finished at or before its task's deadline. The journal is the run's one
// per-task record, so it must have kept everything, and no task may reach
// two terminal entries: at-least-once delivery must not leak into the
// accounting.
func assertHitsVerified(t *testing.T, w *workload.Workload, res *metrics.RunResult, o *obs.Observer) {
	t.Helper()
	entries, evicted := o.Journal().Export()
	if len(entries) == 0 || evicted != 0 {
		t.Fatalf("journal kept %d entries and evicted %d", len(entries), evicted)
	}
	for _, v := range obs.SpanViolations(entries) {
		t.Error(v)
	}
	deadlines := make(map[task.ID]simtime.Instant, len(w.Tasks))
	for _, tk := range w.Tasks {
		deadlines[tk.ID] = tk.Deadline
	}
	hits := 0
	for _, e := range entries {
		if e.Type != "exec" {
			continue
		}
		d, ok := deadlines[task.ID(e.Task)]
		if !ok {
			t.Errorf("execution of unknown task %d", e.Task)
		} else if finish := e.Virtual.Add(e.Dur); e.Hit && finish.After(d) {
			t.Errorf("task %d reported hit but finished %v after deadline %v", e.Task, finish, d)
		}
		if e.Hit {
			hits++
		}
	}
	if hits != res.Hits {
		t.Errorf("the journal shows %d hits, counters say %d", hits, res.Hits)
	}
}

// TestClusterFailoverChannel kills one worker mid-run via fault injection,
// under the search planner and under EDF-greedy: the run must complete
// without hanging, re-route the dead worker's unfinished tasks onto
// survivors, and only report hits that verifiably met their deadlines.
func TestClusterFailoverChannel(t *testing.T) {
	for _, algo := range []policy.Algorithm{policy.RTSADS, policy.EDFGreedy} {
		w, err := workload.Generate(faultParams(3))
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New(0)
		c, err := New(Config{
			Workload:  w,
			Algorithm: algo,
			Scale:     50,
			Faults:    mustPlan(t, "kill=0@500us"),
			Obs:       o,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := runWithDeadline(t, c)

		if res.WorkerFailures != 1 {
			t.Errorf("%s: worker failures = %d, want 1", algo, res.WorkerFailures)
		}
		if res.Rerouted == 0 {
			t.Errorf("%s: killed worker's unfinished tasks were not re-routed", algo)
		}
		if res.Hits == 0 {
			t.Errorf("%s: survivors completed nothing", algo)
		}
		assertFaultAccounting(t, res)
		assertHitsVerified(t, w, res, o)
	}
}

// TestClusterFailoverChannelAllDead kills every worker: the run must still
// terminate, with all unfinished work accounted as lost.
func TestClusterFailoverChannelAllDead(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "kill=0@1ms;kill=1@1ms"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	if res.WorkerFailures != 2 {
		t.Errorf("worker failures = %d, want 2", res.WorkerFailures)
	}
	if res.LostToFailure == 0 {
		t.Error("no tasks counted as lost although every worker died")
	}
	assertFaultAccounting(t, res)
}

// TestClusterMultiFailureSamePhase kills two of four workers at the same
// virtual instant, so both failures land within one scheduling phase. The
// host must absorb both, re-route across the two survivors, and keep the
// books balanced — no task double-counted or dropped between the two
// reclaim passes.
func TestClusterMultiFailureSamePhase(t *testing.T) {
	w, err := workload.Generate(faultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "kill=0@500us;kill=1@500us"),
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)

	if res.WorkerFailures != 2 {
		t.Errorf("worker failures = %d, want 2", res.WorkerFailures)
	}
	if res.Hits == 0 {
		t.Error("the two survivors completed nothing")
	}
	assertFaultAccounting(t, res)
	assertHitsVerified(t, w, res, o)
}

// TestClusterDropRecovery drops delivery messages; the straggler watchdog
// must reclaim and re-route the silently lost jobs so the run still
// accounts for every task.
func TestClusterDropRecovery(t *testing.T) {
	w, err := workload.Generate(faultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "drop=0:2@0s"),
		Liveness: Liveness{
			StragglerGrace:   500 * time.Microsecond, // virtual; 25ms wall at scale 50
			StragglerStrikes: 100,                    // watchdog reclaims but never condemns
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)

	if res.WorkerFailures != 0 {
		t.Errorf("worker failures = %d, want 0 (drops are not crashes)", res.WorkerFailures)
	}
	if res.Rerouted == 0 {
		t.Error("dropped jobs were not reclaimed by the straggler watchdog")
	}
	if res.Hits == 0 {
		t.Error("run completed nothing")
	}
	assertFaultAccounting(t, res)
	assertHitsVerified(t, w, res, o)
}

// TestClusterDelayInjection delays messages without dropping them; the run
// completes and every task is still accounted for. Uses the loosened
// fault workload: with SF=1 deadlines, wall-clock jitter under load can
// wipe out every hit regardless of the injected delays.
func TestClusterDelayInjection(t *testing.T) {
	w, err := workload.Generate(faultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "delay=1:3:1ms@0s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	if res.Hits == 0 {
		t.Error("run completed nothing under delay injection")
	}
	assertFaultAccounting(t, res)
}

// TestClusterFailoverTCP kills one TCP worker mid-run: the host's liveness
// layer must detect the dead connection, refuse to resurrect a killed
// worker, and re-route its jobs onto the survivors.
func TestClusterFailoverTCP(t *testing.T) {
	const workers = 3
	w, err := workload.Generate(faultParams(workers))
	if err != nil {
		t.Fatal(err)
	}

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

	live := Liveness{
		HeartbeatEvery: 20 * time.Millisecond,
		Timeout:        150 * time.Millisecond,
		Redials:        -1, // a severed connection is immediately fatal
	}
	o := obs.New(0)
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "kill=1@500us"),
		Liveness: live,
		Obs:      o,
		Backend: func(clock *Clock, inj *faultinject.Injector) (Backend, error) {
			return NewTCPBackend(clock, w, addrs, TCPOptions{Liveness: live, Inject: inj})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)

	if res.WorkerFailures != 1 {
		t.Errorf("worker failures = %d, want 1", res.WorkerFailures)
	}
	if res.Rerouted+res.LostToFailure == 0 {
		t.Error("dead TCP worker's jobs were neither re-routed nor written off")
	}
	if res.Hits == 0 {
		t.Error("surviving TCP workers completed nothing")
	}
	assertFaultAccounting(t, res)
	assertHitsVerified(t, w, res, o)

	// Every worker process must exit: survivors via the bye handshake, the
	// victim because its connection was severed. None may hang.
	for i := 0; i < workers; i++ {
		select {
		case <-serveErr:
		case <-time.After(10 * time.Second):
			t.Fatal("a worker did not exit after the run")
		}
	}
}

// TestDeadWorkerIsPadded: a fatally failed worker stays in the planner's
// machine with the load of a crashed one, so no schedule uses it again —
// no deliver entry after its worker-down names it — and what it held is
// booked once, as re-routed or lost.
func TestDeadWorkerIsPadded(t *testing.T) {
	w, err := workload.Generate(faultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "kill=0@500us"),
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	if res.WorkerFailures != 1 || res.Rerouted+res.LostToFailure == 0 {
		t.Fatalf("scenario did not exercise failover: %s", res)
	}
	down, reroutes, lost := false, 0, 0
	for _, e := range o.Journal().Snapshot() {
		switch e.Type {
		case "worker-down":
			down = down || e.Worker == 0 && strings.HasPrefix(e.Detail, "fatal")
		case "deliver":
			if down && e.Worker == 0 {
				t.Errorf("task %d delivered to worker 0 after it died", e.Task)
			}
		case "reroute":
			reroutes++
		case "lost":
			lost++
		}
	}
	if !down {
		t.Fatal("journal has no fatal worker-down for worker 0")
	}
	if reroutes != res.Rerouted || lost != res.LostToFailure {
		t.Errorf("journal has %d reroutes and %d losses, books %d and %d", reroutes, lost, res.Rerouted, res.LostToFailure)
	}
	assertFaultAccounting(t, res)
	assertHitsVerified(t, w, res, o)
}
