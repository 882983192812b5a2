// Package livecluster runs the scheduler against real concurrency: a host
// goroutine executes scheduling phases under a wall-clock quantum budget
// while worker goroutines (or remote TCP worker processes) actually execute
// transactions against their database replicas, sleeping out the modelled
// processing and communication times.
//
// The deterministic machine (package machine) generates the paper's
// figures; this package validates that the same planner code drives a live
// message-passing system — the role the Intel Paragon implementation plays
// in the paper.
package livecluster

import (
	"fmt"
	"sync"
	"time"

	"rtsads/internal/db"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// Clock maps between virtual workload time and wall-clock time. Scale > 1
// slows the system down (1 virtual µs = Scale wall µs), which keeps OS
// scheduling jitter small relative to task slacks.
type Clock struct {
	start time.Time
	scale float64
	// sleep stands in for the alarm in tests that need a known timer grid
	// (nil outside tests).
	sleep func(time.Duration)
}

// sleepers holds the idle alarms of SleepUntil. A sleep takes one and puts it
// back, so the process keeps as many as ever slept at once — the workers and
// a router's pump — and a run neither opens nor leaks a descriptor per sleep.
var sleepers struct {
	sync.Mutex
	idle []*alarm
}

func takeSleeper() *alarm {
	sleepers.Lock()
	defer sleepers.Unlock()
	n := len(sleepers.idle)
	if n == 0 {
		return &alarm{kt: newKernelTimer()}
	}
	a := sleepers.idle[n-1]
	sleepers.idle = sleepers.idle[:n-1]
	return a
}

func putSleeper(a *alarm) {
	sleepers.Lock()
	sleepers.idle = append(sleepers.idle, a)
	sleepers.Unlock()
}

// NewClock starts a clock at the current wall time.
func NewClock(scale float64) (*Clock, error) {
	return NewClockAt(time.Now(), scale)
}

// NewClockAt starts a clock whose virtual epoch is the given wall time —
// used by TCP workers to share the host's time base (the processes must be
// on machines with synchronised clocks; the examples use loopback).
func NewClockAt(start time.Time, scale float64) (*Clock, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("livecluster: scale %v must be positive", scale)
	}
	return &Clock{start: start, scale: scale}, nil
}

// Start returns the clock's wall epoch.
func (c *Clock) Start() time.Time { return c.start }

// Scale returns the virtual-to-wall scale factor.
func (c *Clock) Scale() float64 { return c.scale }

// Now returns the current virtual time.
func (c *Clock) Now() simtime.Instant {
	return simtime.Instant(float64(time.Since(c.start)) / c.scale)
}

// SleepUntil blocks until virtual time v has been reached. The target is
// absolute: however late the caller arrives, the sleep ends at v plus the
// wake-up latency of an alarm — tens of wall microseconds on Linux, where it
// is a kernel timer; up to a millisecond where it is a runtime timer, whose
// grain is the whole milliseconds Go's netpoller hands the OS.
func (c *Clock) SleepUntil(v simtime.Instant) {
	if c.sleep != nil {
		if d := c.WallUntil(v); d > 0 {
			c.sleep(d)
		}
		return
	}
	a := takeSleeper()
	// Read the clock only now: opening an alarm is three system calls.
	if d := c.WallUntil(v); d > 0 {
		a.sleep(d)
	}
	putSleeper(a)
}

// WallUntil returns the wall-clock duration from now until virtual time v
// (non-positive when v has already passed). Never maps to a far-future
// duration rather than overflowing.
func (c *Clock) WallUntil(v simtime.Instant) time.Duration {
	if v == simtime.Never {
		return 1 << 56 // ~2.3 years: effectively forever, safely finite
	}
	wall := c.start.Add(time.Duration(float64(v) * c.scale))
	return time.Until(wall)
}

// Job is one unit of work delivered to a worker: execute the transaction,
// occupying the worker for the modelled processing plus communication time.
type Job struct {
	Task     int32           // task ID
	Txn      int32           // transaction index in the shared workload
	Proc     time.Duration   // modelled processing time p
	Comm     time.Duration   // modelled communication cost c
	Deadline simtime.Instant // absolute deadline
	// Ready is the instant the job entered the worker's ready queue, stamped
	// by the backend (after any transit delay) on the worker's clock. Zero —
	// a backend that stamps nothing — means "when the worker picks it up".
	Ready simtime.Instant
}

// serve is the one place the ready-queue arithmetic of §4.3 lives: a job
// that becomes ready at ready on a processor whose queue drains at freeAt
// starts at the later of the two and occupies the processor for cost; serve
// returns the instant it is due to finish. The host plans with it
// (runState.Deliver) and the worker executes by it (RunUntil), so the two
// timelines cannot drift apart.
func serve(freeAt, ready simtime.Instant, cost time.Duration) simtime.Instant {
	return ready.Max(freeAt).Add(cost)
}

// Done reports a finished job. Expired marks a job the worker refused to
// execute because its deadline was already unreachable at the head of the
// queue — the worker's capacity went to jobs that could still hit. Start
// and Finish are clock readings: when the worker picked the job up, and when
// its occupancy had run out (never before the worker observed it had).
type Done struct {
	Task    int32
	Worker  int
	Start   simtime.Instant
	Finish  simtime.Instant
	Expired bool
	Matches int // tuples the transaction located
	Err     string
}

// completions is a backend's completion stream: its goroutines report on
// in, the host reads out. Nothing bounds the queue between the two, so no
// worker waits on a host that is busy planning a phase — the host books
// completions between phases — and the stream costs no buffer sized by the
// run.
type completions struct {
	in, out chan Done
	wg      sync.WaitGroup
}

// newCompletions starts a stream for n reporting goroutines. A slot per
// reporter on either side lets completions that land together pass without
// waiting on the relay.
func newCompletions(n int) *completions {
	c := &completions{in: make(chan Done, n), out: make(chan Done, n)}
	c.wg.Add(1)
	go c.relay()
	return c
}

func (c *completions) relay() {
	defer c.wg.Done()
	var queue []Done
	next := 0
	for in := c.in; in != nil || next < len(queue); {
		var out chan<- Done
		var head Done
		if next < len(queue) {
			out, head = c.out, queue[next]
		}
		select {
		case d, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			queue = append(queue, d)
		case out <- head:
			if next++; next == len(queue) {
				queue, next = queue[:0], 0
			}
		}
	}
	close(c.out)
}

// close ends the stream once the host has read every completion reported
// so far. The reporting goroutines must have stopped.
func (c *completions) close() {
	close(c.in)
	c.wg.Wait()
}

// readyQueue is a worker's ready queue RQs(j): a FIFO the backend pushes to
// without ever blocking and the worker pops from. Its storage follows the
// jobs outstanding at once, not the run — the slice is reused once it
// drains, and compacted before it grows past a dead prefix — and a one-slot
// wake channel parks the worker while the queue is empty.
type readyQueue struct {
	mu     sync.Mutex
	jobs   []Job
	next   int // index of the head in jobs
	closed bool
	wake   chan struct{}
}

func newReadyQueue() *readyQueue {
	return &readyQueue{wake: make(chan struct{}, 1)}
}

// push appends j at the tail.
func (q *readyQueue) push(j Job) {
	q.mu.Lock()
	if len(q.jobs) == cap(q.jobs) && q.next > len(q.jobs)/2 {
		q.jobs = q.jobs[:copy(q.jobs, q.jobs[q.next:])]
		q.next = 0
	}
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
	q.signal()
}

// close ends the queue: the worker drains what is queued, then pop reports
// it finished.
func (q *readyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *readyQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// pop returns the head of the queue, waiting while it is empty. ok is false
// once the queue is closed and drained, or as soon as quit closes: a
// crashed worker abandons whatever is still queued. A nil quit never fires.
func (q *readyQueue) pop(quit <-chan struct{}) (j Job, ok bool) {
	for {
		select {
		case <-quit:
			return Job{}, false
		default:
		}
		q.mu.Lock()
		if q.next < len(q.jobs) {
			j = q.jobs[q.next]
			if q.next++; q.next == len(q.jobs) {
				q.jobs, q.next = q.jobs[:0], 0
			}
			q.mu.Unlock()
			return j, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return Job{}, false
		}
		select {
		case <-quit:
			return Job{}, false
		case <-q.wake:
		}
	}
}

// Worker is one working processor: it owns replicas of some sub-databases
// and executes delivered jobs strictly in order (a non-preemptive ready
// queue). Start it with Run in a goroutine; close its ready queue to shut it
// down.
type Worker struct {
	ID    int
	clock *Clock
	w     *workload.Workload
	local map[int]*db.SubDB // sub-database ID -> local replica
	o     *obs.Observer
}

// Observe attaches an observer recording the worker's executed jobs (nil
// detaches). Call before starting Run.
func (wk *Worker) Observe(o *obs.Observer) *Worker {
	wk.o = o
	return wk
}

// NewWorker builds worker id for the given workload, holding replicas of
// the sub-databases the placement assigns to it.
func NewWorker(id int, clock *Clock, w *workload.Workload) *Worker {
	local := make(map[int]*db.SubDB)
	for sub, set := range w.Placement {
		if set.Has(id) {
			local[sub] = w.DB.Subs[sub]
		}
	}
	return &Worker{ID: id, clock: clock, w: w, local: local}
}

// HasReplica reports whether the worker holds sub-database sub locally.
func (wk *Worker) HasReplica(sub int) bool {
	_, ok := wk.local[sub]
	return ok
}

// Run consumes jobs until the queue is closed and drained, sending one Done
// per job. It never closes done; the cluster owns that channel.
func (wk *Worker) Run(jobs *readyQueue, done chan<- Done) {
	wk.RunUntil(jobs, done, nil)
}

// RunUntil is Run with a crash switch: when quit closes, the worker stops
// consuming and abandons whatever is still queued — the behaviour of a
// crashed processor. The job being executed when quit fires still completes
// (workers are non-preemptive). A nil quit never fires.
//
// The worker follows the timeline the host plans on (serve): each job's
// completion target is max(ready, previous target) + p + c, the worker
// sleeps to that absolute instant, and the target — not the wake-up, which
// lands a wake-up latency late (see Clock.SleepUntil) — is what the next job
// queues behind. A late wake-up therefore costs its own job that latency
// once; carried forward as the parent of the next start it would delay every
// job behind it and add up along the queue.
func (wk *Worker) RunUntil(jobs *readyQueue, done chan<- Done, quit <-chan struct{}) {
	var freeAt simtime.Instant // the previous job's target
	for {
		j, ok := jobs.pop(quit)
		if !ok {
			return
		}
		pickup := wk.clock.Now()
		ready := j.Ready
		if ready == 0 {
			ready = pickup
		}
		target := serve(freeAt, ready, j.Proc+j.Comm)
		if j.Deadline != 0 && !task.Fits(target.Max(pickup), 0, 0, j.Deadline) {
			// Deadline-aware shedding at the queue head: the job cannot
			// finish in time no matter what (it arrived late — a delivery
			// delay, or a backlog the host mis-modelled), so executing it
			// would burn capacity that jobs behind it could still use to
			// hit their own deadlines. Report it expired, unexecuted.
			done <- Done{Task: j.Task, Worker: wk.ID, Start: pickup, Finish: pickup, Expired: true}
			continue
		}
		res := wk.execute(j)
		// Occupy the modelled duration: the real scan above is measured in
		// microseconds of wall time; the model's p + c dominates.
		wk.clock.SleepUntil(target)
		freeAt = target
		finish := target
		if now := wk.clock.Now(); now.After(target) {
			finish = now // report honestly if the sleep overshot
			wk.o.WorkerOvershoot(now.Sub(target))
		}
		res.Start = pickup
		res.Finish = finish
		wk.o.WorkerExecuted(wk.ID, finish.Sub(pickup))
		done <- res
	}
}

// execute runs the transaction against a replica: locally when one is
// held, otherwise against the remote sub-database (the communication cost
// in j.Comm models the transfer).
func (wk *Worker) execute(j Job) Done {
	out := Done{Task: j.Task, Worker: wk.ID}
	if int(j.Txn) < 0 || int(j.Txn) >= len(wk.w.Txns) {
		out.Err = fmt.Sprintf("unknown transaction %d", j.Txn)
		return out
	}
	q := &wk.w.Txns[j.Txn]
	sub, ok := wk.local[q.Sub]
	if !ok {
		// Remote access: the data still lives in some processor's memory;
		// j.Comm accounts for the transfer.
		sub = wk.w.DB.Subs[q.Sub]
	}
	res, err := wk.w.DB.Execute(sub, q)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Matches = res.Matches
	return out
}
