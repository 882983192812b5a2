package livecluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/faultinject"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
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
	got := res.Hits + res.ScheduledMissed + res.Purged + res.LostToFailure + res.Shed
	if got != res.Total {
		t.Errorf("accounting: %d hits + %d schedMissed + %d purged + %d lost + %d shed = %d, want total %d",
			res.Hits, res.ScheduledMissed, res.Purged, res.LostToFailure, res.Shed, got, res.Total)
	}
	if sum := res.ShedHopeless + res.ShedQueueFull + res.ShedShutdown; sum != res.Shed {
		t.Errorf("shed reasons: %d hopeless + %d queueFull + %d shutdown = %d, want shed total %d",
			res.ShedHopeless, res.ShedQueueFull, res.ShedShutdown, sum, res.Shed)
	}
}

// assertHitsVerified re-checks every completion reported as a hit against
// the authoritative deadline in the workload: a "hit" must have verifiably
// finished at or before its task's deadline.
func assertHitsVerified(t *testing.T, w *workload.Workload, res *metrics.RunResult) {
	t.Helper()
	if len(res.Completions) == 0 {
		t.Fatal("no completion records; enable RecordCompletions")
	}
	deadlines := make(map[task.ID]simtime.Instant, len(w.Tasks))
	for _, tk := range w.Tasks {
		deadlines[tk.ID] = tk.Deadline
	}
	seen := make(map[task.ID]bool, len(res.Completions))
	hits := 0
	for _, c := range res.Completions {
		if seen[c.Task] {
			t.Errorf("task %d recorded twice: at-least-once delivery leaked into accounting", c.Task)
		}
		seen[c.Task] = true
		d, ok := deadlines[c.Task]
		if !ok {
			t.Errorf("completion for unknown task %d", c.Task)
			continue
		}
		if c.Hit {
			hits++
			if !c.Executed {
				t.Errorf("task %d: hit but never executed", c.Task)
			}
			if c.Finish.After(d) {
				t.Errorf("task %d reported hit but finished %v after deadline %v",
					c.Task, c.Finish, d)
			}
		}
	}
	if hits != res.Hits {
		t.Errorf("completion records show %d hits, counters say %d", hits, res.Hits)
	}
}

// TestClusterFailoverChannel is the acceptance test from the issue: kill one
// worker mid-run via fault injection, and the run must complete without
// hanging, re-route the dead worker's unfinished tasks onto survivors, and
// only report hits that verifiably met their deadlines.
func TestClusterFailoverChannel(t *testing.T) {
	w, err := workload.Generate(faultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Workload:          w,
		Scale:             50,
		Faults:            mustPlan(t, "kill=0@500us"),
		RecordCompletions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)

	if res.WorkerFailures != 1 {
		t.Errorf("worker failures = %d, want 1", res.WorkerFailures)
	}
	if res.Rerouted == 0 {
		t.Error("killed worker's unfinished tasks were not re-routed")
	}
	if res.Hits == 0 {
		t.Error("survivors completed nothing")
	}
	assertFaultAccounting(t, res)
	assertHitsVerified(t, w, res)
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
	c, err := New(Config{
		Workload:          w,
		Scale:             50,
		Faults:            mustPlan(t, "kill=0@500us;kill=1@500us"),
		RecordCompletions: true,
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
	assertHitsVerified(t, w, res)
}

// TestClusterDropRecovery drops delivery messages; the straggler watchdog
// must reclaim and re-route the silently lost jobs so the run still
// accounts for every task.
func TestClusterDropRecovery(t *testing.T) {
	w, err := workload.Generate(faultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "drop=0:2@0s"),
		Liveness: Liveness{
			StragglerGrace:   500 * time.Microsecond, // virtual; 25ms wall at scale 50
			StragglerStrikes: 100,                    // watchdog reclaims but never condemns
		},
		RecordCompletions: true,
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
	assertHitsVerified(t, w, res)
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
	c, err := New(Config{
		Workload:          w,
		Scale:             50,
		Faults:            mustPlan(t, "kill=1@500us"),
		Liveness:          live,
		RecordCompletions: true,
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
	assertHitsVerified(t, w, res)

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
		Workload:          w,
		Scale:             50,
		Faults:            mustPlan(t, "kill=0@500us"),
		RecordCompletions: true,
		Obs:               o,
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
	assertHitsVerified(t, w, res)
}

// TestDegradeSurvivesWorkerLoss: the run degrades at once and never
// recovers (the controller needs 2^20 clean phases), then loses a worker.
// The controller outlives the loss, so the books show its transitions and
// nothing else: no recovery, and no "planner rebuilt" mode change.
func TestDegradeSurvivesWorkerLoss(t *testing.T) {
	w, err := workload.Generate(faultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Policy:   core.Fixed{D: time.Microsecond},
		Degrade:  &core.DegradeConfig{After: 1, Recover: 1 << 20, SlackFraction: 1e-9},
		Faults:   mustPlan(t, "kill=0@500us"),
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	if res.WorkerFailures != 1 || res.Degradations == 0 {
		t.Fatalf("scenario did not degrade and then lose a worker: %s", res)
	}
	degrades, recovers := 0, 0
	for _, e := range o.Journal().Snapshot() {
		switch e.Type {
		case "degrade":
			degrades++
		case "recover":
			recovers++
			t.Errorf("recovery journaled at phase %d: %q", e.Phase, e.Detail)
		}
	}
	if res.Degradations != 1 || res.Recoveries != 0 || degrades != 1 || recovers != 0 {
		t.Errorf("books %d degradations / %d recoveries, journal %d / %d; the controller made 1 / 0",
			res.Degradations, res.Recoveries, degrades, recovers)
	}
	assertFaultAccounting(t, res)
}
