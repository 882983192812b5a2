package livecluster

import (
	"fmt"
	"sync"
	"time"

	"rtsads/internal/simtime"
)

// Overloaded is the retryable backpressure response a backend returns from
// Deliver when a worker's bounded job queue is full: the first Accepted
// jobs were enqueued, the rest were refused, and the host should retry
// after roughly RetryAfter of virtual time instead of buffering
// unboundedly. It is the one Deliver error that does not indicate a
// programming mistake; hosts detect it with errors.As.
type Overloaded struct {
	// Worker is the working processor whose queue is full.
	Worker int
	// Accepted is how many of the delivered jobs were enqueued before the
	// cap was hit; jobs[Accepted:] must be reclaimed by the caller.
	Accepted int
	// RetryAfter is the suggested virtual-time delay before retrying,
	// derived from the tracker's Min_Load estimate — the earliest time any
	// worker is expected to free capacity.
	RetryAfter time.Duration
}

// Error implements error.
func (e *Overloaded) Error() string {
	return fmt.Sprintf("livecluster: worker %d overloaded (%d accepted, retry after %v)",
		e.Worker, e.Accepted, e.RetryAfter)
}

// trackedJob is one delivered-but-unfinished job's footprint in the
// tracker.
type trackedJob struct {
	worker   int
	cost     time.Duration // modelled occupancy: processing + communication
	deadline simtime.Instant
}

// loadTracker is the backend-side model of each worker's outstanding queue:
// how many delivered jobs have not completed, and how much modelled
// execution time they represent. It is the mechanism behind the Overloaded
// response — Deliver consults it for room, completions drain it, and
// worker resets (redial, death) clear it.
//
// Jobs that vanish without completing — dropped by fault injection, lost
// with a dead connection — would otherwise leak queue slots forever, so
// entries whose deadline is more than grace in the past are presumed
// reclaimed by the host's straggler watchdog and pruned.
type loadTracker struct {
	mu    sync.Mutex
	cap   int           // per-worker job cap (always > 0; nil tracker = unbounded)
	grace time.Duration // abandonment horizon past a job's deadline

	queued []int
	load   []time.Duration
	jobs   map[int32]trackedJob
}

// newLoadTracker returns a tracker bounding each of workers queues at
// perWorker jobs, or nil when perWorker <= 0 (backpressure disabled).
func newLoadTracker(workers, perWorker int, grace time.Duration) *loadTracker {
	if perWorker <= 0 {
		return nil
	}
	if grace <= 0 {
		grace = Liveness{}.WithDefaults().StragglerGrace
	}
	return &loadTracker{
		cap:    perWorker,
		grace:  grace,
		queued: make([]int, workers),
		load:   make([]time.Duration, workers),
		jobs:   make(map[int32]trackedJob, workers*perWorker),
	}
}

// room returns how many more jobs worker k can accept at now, after pruning
// abandoned entries. A nil tracker has unlimited room.
func (lt *loadTracker) room(k int, now simtime.Instant) int {
	if lt == nil {
		return int(^uint(0) >> 1)
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.prune(now)
	if k < 0 || k >= len(lt.queued) {
		return 0
	}
	return lt.cap - lt.queued[k]
}

// add registers one delivered job. Nil-safe.
func (lt *loadTracker) add(k int, j Job) {
	if lt == nil || k < 0 || k >= len(lt.queued) {
		return
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if _, dup := lt.jobs[j.Task]; dup {
		return
	}
	lt.jobs[j.Task] = trackedJob{worker: k, cost: j.Proc + j.Comm, deadline: j.Deadline}
	lt.queued[k]++
	lt.load[k] += j.Proc + j.Comm
}

// complete drains one finished job. Unknown IDs (already pruned or reset)
// are ignored. Nil-safe.
func (lt *loadTracker) complete(id int32) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.drop(id)
}

// reset clears worker k's entries — its queue state restarted (a fresh
// session after a redial) or ceased to matter (the worker is dead).
// Nil-safe.
func (lt *loadTracker) reset(k int) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for id, tj := range lt.jobs {
		if tj.worker == k {
			lt.drop(id)
		}
	}
}

// retryAfter estimates when retrying a delivery to worker k could succeed:
// the larger of the cluster-wide Min_Load (the earliest any worker drains
// its backlog — the same quantity the paper's quantum criterion uses) and
// worker k's own expected time to free one slot.
func (lt *loadTracker) retryAfter(k int) time.Duration {
	if lt == nil {
		return 0
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	minLoad := time.Duration(-1)
	for _, l := range lt.load {
		if minLoad < 0 || l < minLoad {
			minLoad = l
		}
	}
	if minLoad < 0 {
		minLoad = 0
	}
	var perSlot time.Duration
	if k >= 0 && k < len(lt.queued) && lt.queued[k] > 0 {
		perSlot = lt.load[k] / time.Duration(lt.queued[k])
	}
	return simtime.MaxDur(minLoad, perSlot)
}

// prune drops entries abandoned past their deadline by more than the
// grace: their jobs were dropped in transit or died with a connection, and
// the host has long since reclaimed the tasks. Callers hold mu.
func (lt *loadTracker) prune(now simtime.Instant) {
	for id, tj := range lt.jobs {
		if now.After(tj.deadline.Add(lt.grace)) {
			lt.drop(id)
		}
	}
}

// drop removes one entry and its footprint. Callers hold mu.
func (lt *loadTracker) drop(id int32) {
	tj, ok := lt.jobs[id]
	if !ok {
		return
	}
	delete(lt.jobs, id)
	lt.queued[tj.worker]--
	lt.load[tj.worker] -= tj.cost
	if lt.load[tj.worker] < 0 {
		lt.load[tj.worker] = 0
	}
}
