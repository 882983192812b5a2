package livecluster

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// TestReadyQueue pins the queue on its own: FIFO order across a concurrent
// producer, close draining what is queued, and storage that follows the
// jobs outstanding rather than the jobs pushed.
func TestReadyQueue(t *testing.T) {
	const n = 20_000
	q := newReadyQueue()
	go func() {
		for i := 0; i < n; i++ {
			q.push(Job{Task: int32(i)})
		}
		q.close()
	}()
	var got int32
	for j, ok := q.pop(nil); ok; j, ok = q.pop(nil) {
		if j.Task != got {
			t.Fatalf("popped task %d, want %d", j.Task, got)
		}
		got++
	}
	if got != n {
		t.Fatalf("popped %d of %d jobs before the closed queue reported done", got, n)
	}

	// A queue that never drains still reuses its storage.
	q = newReadyQueue()
	q.push(Job{Task: 0})
	for i := 1; i <= n; i++ {
		q.push(Job{Task: int32(i)})
		if j, _ := q.pop(nil); j.Task != int32(i-1) {
			t.Fatalf("popped task %d, want %d", j.Task, i-1)
		}
	}
	if c := cap(q.jobs); c > 8 {
		t.Errorf("a queue never more than two deep holds %d slots after %d pushes", c, n)
	}
}

// parkingClock returns a clock whose worker sleeps block until release
// closes, and a channel closed when the first sleep begins: the worker is
// then parked on its first job.
func parkingClock(t *testing.T) (clock *Clock, parked <-chan struct{}, release chan struct{}) {
	t.Helper()
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	p, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	clock.sleep = func(time.Duration) {
		once.Do(func() { close(p) })
		<-release
	}
	return clock, p, release
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// queuedJobs returns n jobs of task IDs first, first+1, ... that never miss.
func queuedJobs(w *workload.Workload, first, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Task: int32(first + i), Txn: w.Tasks[0].Payload, Proc: time.Millisecond, Deadline: simtime.Never}
	}
	return jobs
}

// TestChannelBackendReadyQueue delivers 10 000 jobs — far more than the
// workload's 60 tasks — to a worker parked on a long job: Deliver returns
// without waiting for it, and Close turns every queued job into a Done, in
// the order delivered.
func TestChannelBackendReadyQueue(t *testing.T) {
	const n = 10_000
	w, err := workload.Generate(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	clock, parked, release := parkingClock(t)
	b := NewBoundedChannelBackend(clock, w, 0, nil, nil)
	if err := b.Deliver(0, queuedJobs(w, 0, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, parked, "the worker to start its first job")

	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		if err := b.Deliver(0, queuedJobs(w, 1, n)); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, delivered, "Deliver behind a parked worker")
	close(release)

	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	var next int32
	for d := range b.Done() {
		if d.Task != next || d.Expired || d.Err != "" {
			t.Fatalf("completion %d: %+v, want task %d executed in time", next, d, next)
		}
		next++
	}
	if next != n+1 {
		t.Errorf("%d completions, want %d", next, n+1)
	}
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestChannelBackendKillAbandonsQueue kills a worker parked on a job with
// 50 more queued behind it: the job in hand still completes (workers are
// non-preemptive), the queued ones are abandoned.
func TestChannelBackendKillAbandonsQueue(t *testing.T) {
	w, err := workload.Generate(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	clock, parked, release := parkingClock(t)
	inj, err := mustPlan(t, "kill=0@200ms").Bind(clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBoundedChannelBackend(clock, w, 0, inj, nil)
	if err := b.Deliver(0, queuedJobs(w, 0, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, parked, "the worker to start its first job")
	if err := b.Deliver(0, queuedJobs(w, 1, 50)); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-b.Failures():
		if f.Worker != 0 || !f.Fatal {
			t.Fatalf("failure %+v, want worker 0 fatal", f)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the injected kill never fired")
	}
	close(release)

	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	var got []int32
	for d := range b.Done() {
		got = append(got, d.Task)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("completions for tasks %v, want only the job in hand (task 0)", got)
	}
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestChannelBackendAllocsFollowTheWork builds and closes the in-process
// backend over a 100 000-task workload: what it allocates must not grow with
// the task list. Ready queues as long as the task list cost 40 B per task
// per worker, ≈32 MB here.
func TestChannelBackendAllocsFollowTheWork(t *testing.T) {
	p := liveParams(8)
	p.NumTransactions = 100_000
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBoundedChannelBackend(clock, w, 0, nil, nil)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("backend over %d tasks allocated %d B, want < 64 KiB", len(w.Tasks), got)
	}
}
