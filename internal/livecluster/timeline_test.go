package livecluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rtsads/internal/faultinject"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

const (
	// testGrain is the timer grid the tests impose through Clock.sleep: the
	// coarse end of what Go timers deliver on Linux.
	testGrain = time.Millisecond
	// wallSlop is what the real timer underneath and a loaded CI box may add
	// on top of the imposed grid. The drift these tests guard against is an
	// order of magnitude larger.
	wallSlop = 15 * time.Millisecond
)

// onQuietBox runs a wall-clock scenario up to three times and fails only if
// every attempt does: drift is systematic, a shared host stalling the
// process for tens of milliseconds is not.
func onQuietBox(t *testing.T, scenario func() error) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = scenario(); err == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt, err)
	}
	t.Error(err)
}

// gridClock returns a Scale-1 clock whose every sleep ends on the next
// multiple of testGrain, and the clock reading taken right after the most
// recent sleep.
func gridClock(t *testing.T) (*Clock, *atomic.Int64) {
	t.Helper()
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	woke := new(atomic.Int64)
	clock.sleep = func(d time.Duration) {
		wake := (time.Since(clock.start) + d + testGrain - 1) / testGrain * testGrain
		time.Sleep(wake - time.Since(clock.start))
		woke.Store(int64(clock.Now()))
	}
	return clock, woke
}

// timelineWorker starts worker 0 of a small workload on the clock.
func timelineWorker(t *testing.T, clock *Clock, queue int) (*workload.Workload, *readyQueue, <-chan Done) {
	t.Helper()
	w, err := workload.Generate(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	jobs := newReadyQueue()
	done := make(chan Done, queue)
	go func() {
		NewWorker(0, clock, w).Run(jobs, done)
		close(done)
	}()
	return w, jobs, done
}

// TestWorkerTimelineDoesNotDrift queues 200 short jobs behind each other on
// a 1 ms timer grid. Carrying each late wake-up forward would stretch every
// 300 µs job to a full grain (≈200 ms in all); on the absolute timeline the
// whole queue costs its modelled 60 ms plus one grain.
func TestWorkerTimelineDoesNotDrift(t *testing.T) {
	const n, cost = 200, 300 * time.Microsecond
	onQuietBox(t, func() error {
		clock, _ := gridClock(t)
		w, jobs, done := timelineWorker(t, clock, n)
		ready := clock.Now()
		for i := 0; i < n; i++ {
			jobs.push(Job{Task: int32(i), Txn: w.Tasks[0].Payload, Proc: cost, Deadline: simtime.Never, Ready: ready})
		}
		jobs.close()

		var last Done
		for i := 0; i < n; i++ {
			d := <-done
			target := ready.Add(time.Duration(i+1) * cost)
			if d.Expired || d.Err != "" {
				t.Fatalf("job %d: %+v", i, d)
			}
			if d.Start.Before(ready) {
				t.Errorf("job %d started at %v, before it was ready at %v", i, d.Start, ready)
			}
			if d.Finish.Before(target) {
				t.Errorf("job %d finished at %v, before its target %v", i, d.Finish, target)
			}
			if d.Finish.Before(last.Finish) || d.Finish.Before(d.Start) {
				t.Errorf("job %d: finish %v runs backwards (start %v, previous finish %v)", i, d.Finish, d.Start, last.Finish)
			}
			last = d
		}
		if limit := ready.Add(n*cost + testGrain + wallSlop); last.Finish.After(limit) {
			return fmt.Errorf("queue drained %v after it was ready, want within %v + one %v grain",
				last.Finish.Sub(ready), n*cost, testGrain)
		}
		return nil
	})
}

// TestWorkerTimelineIdleRestart feeds jobs one at a time with idle gaps: the
// timeline restarts at each job's Ready instead of chaining from the stale
// previous target, and no Finish predates the clock reading the worker took
// after sleeping.
func TestWorkerTimelineIdleRestart(t *testing.T) {
	const cost = 2500 * time.Microsecond
	onQuietBox(t, func() (err error) {
		clock, woke := gridClock(t)
		w, jobs, done := timelineWorker(t, clock, 1)
		defer jobs.close()
		for i := 0; i < 5; i++ {
			time.Sleep(3 * time.Millisecond) // the worker idles past its last target
			ready := clock.Now()
			jobs.push(Job{Task: int32(i), Txn: w.Tasks[0].Payload, Proc: cost, Deadline: simtime.Never, Ready: ready})
			d := <-done
			if d.Start.Before(ready) {
				t.Errorf("job %d started at %v, before it was ready at %v", i, d.Start, ready)
			}
			if d.Finish.Before(ready.Add(cost)) {
				t.Errorf("job %d finished %v after ready, occupancy is %v: timeline did not restart at Ready",
					i, d.Finish.Sub(ready), cost)
			}
			if after := simtime.Instant(woke.Load()); d.Finish.Before(after) {
				t.Errorf("job %d reports finish %v, but the worker read %v after its sleep", i, d.Finish, after)
			}
			if d.Finish.After(ready.Add(cost + testGrain + wallSlop)) {
				err = fmt.Errorf("job %d finished %v after ready, want %v + one grain", i, d.Finish.Sub(ready), cost)
			}
		}
		return err
	})
}

// TestWorkerTimelineExpiry pins the queue-head test max(target, pickup) >
// deadline: a job whose target passes its deadline, and a job whose target
// is fine but which is picked up after its deadline, are both refused
// unexecuted and occupy nothing.
func TestWorkerTimelineExpiry(t *testing.T) {
	onQuietBox(t, func() error {
		clock, _ := gridClock(t)
		w, jobs, done := timelineWorker(t, clock, 4)
		txn := w.Tasks[0].Payload
		ready := clock.Now()
		jobs.push(Job{Task: 0, Txn: txn, Proc: 5 * time.Millisecond, Deadline: simtime.Never, Ready: ready})
		// Queued behind job 0 its target is ready+10ms, past the deadline.
		jobs.push(Job{Task: 1, Txn: txn, Proc: 5 * time.Millisecond, Deadline: ready.Add(7 * time.Millisecond), Ready: ready})
		// A stale stamp puts the target before the deadline, but the deadline
		// has passed by the time the worker reaches the job.
		jobs.push(Job{Task: 2, Txn: txn, Proc: time.Millisecond, Deadline: ready.Add(4 * time.Millisecond), Ready: ready.Add(-20 * time.Millisecond)})
		jobs.push(Job{Task: 3, Txn: txn, Proc: time.Millisecond, Deadline: simtime.Never, Ready: ready})
		jobs.close()

		first := <-done
		if first.Expired || first.Finish.Before(ready.Add(5*time.Millisecond)) {
			t.Fatalf("job 0: %+v", first)
		}
		for id := int32(1); id <= 2; id++ {
			d := <-done
			if d.Task != id || !d.Expired || d.Hit || d.Finish != d.Start {
				t.Errorf("job %d should be refused at the queue head: %+v", id, d)
			}
		}
		// The refused jobs occupied nothing: job 3 queues directly behind job 0.
		d := <-done
		if d.Expired || d.Finish.Before(ready.Add(6*time.Millisecond)) {
			t.Errorf("job 3 should run right behind job 0, 6ms after ready: %+v", d)
		}
		if d.Finish.After(ready.Add(6*time.Millisecond + testGrain + wallSlop)) {
			return fmt.Errorf("job 3 finished %v after ready, want 6ms + one grain", d.Finish.Sub(ready))
		}
		return nil
	})
}

// tapBackend records, per Deliver call, the clock reading after the call
// returned — an upper bound on the Ready stamps the backend put on the jobs.
type tapBackend struct {
	Backend
	clock  *Clock
	queued map[int32]simtime.Instant
}

func (b *tapBackend) Deliver(proc int, jobs []Job) error {
	err := b.Backend.Deliver(proc, jobs)
	at := b.clock.Now()
	for _, j := range jobs {
		b.queued[j.Task] = at
	}
	return err
}

// TestHostAndWorkerTimelinesAgree runs a burst through one worker and
// replays both timelines from the host's deliver entries with the shared
// helper: the host's (deliverAt, worst-case cost — its flight.due) and the
// worker's earliest (the same recurrence on actual cost). Every job finishes
// no earlier than the second and no later than the first plus the delivery
// stamp gap and one timer grain. Under relative sleeps the error grew by
// half a grain per queued job.
func TestHostAndWorkerTimelinesAgree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		noise  float64
		faults string
	}{
		{name: "exact"},
		{name: "cost-noise", noise: 0.5},
		{name: "delayed", faults: "delay=0:3:500us@0s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onQuietBox(t, func() error { return timelinesAgree(t, tc.noise, tc.faults) })
		})
	}
}

func timelinesAgree(t *testing.T, noise float64, faults string) error {
	p := liveParams(1)
	p.CostNoise = noise
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[task.ID]*task.Task, len(w.Tasks))
	for _, tk := range w.Tasks {
		// Every delivery executes, yet a stalled run still ends: the host
		// sleeps to the nearest purge point when a phase schedules nothing.
		tk.Deadline = simtime.Instant(time.Second)
		byID[tk.ID] = tk
	}
	o := obs.New(0)
	tap := &tapBackend{queued: make(map[int32]simtime.Instant)}
	cfg := Config{Workload: w, Scale: 1, Obs: o}
	if faults != "" {
		cfg.Faults = mustPlan(t, faults)
	}
	cfg.Backend = func(clock *Clock, inj *faultinject.Injector) (Backend, error) {
		tap.Backend, tap.clock = NewBoundedChannelBackend(clock, w, 0, inj, o), clock
		return tap, nil
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := runWithDeadline(t, c); res.Hits != len(w.Tasks) {
		return fmt.Errorf("want every task executed in time, got %s", res)
	}

	entries := o.Journal().Snapshot()
	finish := make(map[int]simtime.Instant)
	for _, e := range entries {
		if e.Type == "exec" {
			finish[e.Task] = e.Virtual.Add(e.Dur)
		}
	}
	var hostFree, workerFree simtime.Instant
	var gap time.Duration
	var late error
	for _, e := range entries {
		if e.Type != "deliver" {
			continue
		}
		tk := byID[task.ID(e.Task)]
		due := serve(hostFree, e.Virtual, tk.Proc+e.Dur)
		earliest := serve(workerFree, e.Virtual, tk.ActualProc()+e.Dur)
		hostFree, workerFree = due, earliest
		// Ready trails deliverAt by the stamp gap, so the worker's targets
		// trail the replay by at most the largest gap so far.
		gap = simtime.MaxDur(gap, tap.queued[int32(e.Task)].Sub(e.Virtual))
		got := finish[e.Task]
		if got.Before(earliest) {
			t.Errorf("task %d finished at %v, before its occupancy ran out at %v", e.Task, got, earliest)
		}
		if got.After(due.Add(gap + testGrain + wallSlop)) {
			late = fmt.Errorf("task %d finished %v past the host's due instant (stamp gap %v)", e.Task, got.Sub(due), gap)
		}
	}
	return late
}

// TestJobReadyGobFallback hands a worker a Job with no Ready stamp — what a
// backend that does not stamp one delivers: the worker then starts the job's
// timeline at the instant it picks the job up. (The name is historical: the
// gob transport produced such jobs from hosts that predated the field.)
func TestJobReadyGobFallback(t *testing.T) {
	clock, _ := gridClock(t)
	w, jobs, done := timelineWorker(t, clock, 1)
	j := Job{Txn: w.Tasks[0].Payload, Proc: 2 * time.Millisecond, Deadline: simtime.Never}
	time.Sleep(3 * time.Millisecond) // a zero Ready must not read as "ready since the epoch"
	before := clock.Now()
	jobs.push(j)
	jobs.close()
	d := <-done
	if d.Start.Before(before) || d.Finish.Before(d.Start.Add(j.Proc)) {
		t.Errorf("job without a Ready stamp ran %v..%v, want a full %v from its pickup after %v",
			d.Start, d.Finish, j.Proc, before)
	}
}
