package livecluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/faultinject"
	"rtsads/internal/federation/wire"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// Backend delivers jobs to workers and surfaces their completions. The
// in-process backend uses channels; the TCP backend (tcp.go) uses RTFW
// sessions (federation/wire) over the network.
//
// Transport-level problems (a dead connection, a crashed worker) must not
// surface as Deliver errors: they are reported asynchronously on Failures,
// and the cluster reclaims and re-routes the affected jobs. Deliver returns
// an error only for programming mistakes such as an out-of-range worker.
type Backend interface {
	// Deliver enqueues jobs on worker proc's ready queue, in order.
	Deliver(proc int, jobs []Job) error
	// Done is the stream of completions from all workers.
	Done() <-chan Done
	// Failures is the stream of detected worker failures. It is never
	// closed; backends that cannot fail may return a channel that never
	// sends.
	Failures() <-chan Failure
	// Close shuts the workers down and releases resources. It must be
	// called exactly once, after the final Deliver.
	Close() error
}

// Failure reports that a worker was detected dead or unreachable. Fatal
// failures remove the processor from the machine for the rest of the run;
// non-fatal failures (a connection that was successfully re-established, a
// straggling worker) only trigger reclaim and re-delivery of the worker's
// outstanding jobs.
type Failure struct {
	Worker int
	At     simtime.Instant
	Fatal  bool
	Err    string
}

// Liveness bounds the failure detectors. Zero values select the defaults.
type Liveness struct {
	// HeartbeatEvery is the wall-clock interval between heartbeat frames
	// on a TCP session, in both directions (default 100ms).
	HeartbeatEvery time.Duration
	// Timeout is the wall-clock silence after which a TCP peer is
	// presumed dead, and the longest a single write to it may block
	// (default 5 x HeartbeatEvery).
	Timeout time.Duration
	// HelloTimeout bounds how long a serving worker or shard waits for the
	// preamble and hello after accepting a connection, and a router for a
	// shard to answer its own (default 30s).
	HelloTimeout time.Duration
	// Redials is how many reconnection attempts the host makes when a
	// worker connection breaks mid-run; negative disables reconnection
	// (default 2).
	Redials int
	// RedialBackoff is the wall-clock delay before the first redial; it
	// doubles per attempt (default 50ms).
	RedialBackoff time.Duration
	// StragglerGrace is the virtual time past a job's planned completion
	// before the host declares its worker unresponsive and reclaims the
	// worker's outstanding jobs (default 250ms virtual).
	StragglerGrace time.Duration
	// StragglerStrikes is how many straggler reclaims a worker survives
	// before it is removed from the machine for good (default 2).
	StragglerStrikes int
}

// WithDefaults resolves zero values to the documented defaults.
func (l Liveness) WithDefaults() Liveness {
	if l.HeartbeatEvery <= 0 {
		l.HeartbeatEvery = 100 * time.Millisecond
	}
	if l.Timeout <= 0 {
		l.Timeout = 5 * l.HeartbeatEvery
	}
	if l.HelloTimeout <= 0 {
		l.HelloTimeout = 30 * time.Second
	}
	if l.Redials == 0 {
		l.Redials = 2
	}
	if l.RedialBackoff <= 0 {
		l.RedialBackoff = 50 * time.Millisecond
	}
	if l.StragglerGrace <= 0 {
		l.StragglerGrace = 250 * time.Millisecond
	}
	if l.StragglerStrikes <= 0 {
		l.StragglerStrikes = 2
	}
	return l
}

// Config configures a live cluster run.
type Config struct {
	// Workload to execute. Required.
	Workload *workload.Workload
	// Algorithm selects the planner (default RT-SADS).
	Algorithm policy.Algorithm
	// Scale slows virtual time down relative to wall time. Every wait of the
	// live path ends a wake-up latency late — on Linux, where the alarm is a
	// kernel timer, ≈50 µs wall at the median and ≈150 µs at p90 on a 2-core
	// VM (≈2.5 and ≈8 µs virtual at the default 20); on runtime timers up to
	// 1.1 ms, the whole milliseconds Go's netpoller sleeps in. Workers sleep
	// to absolute targets, so a job pays that once; it does not accumulate
	// along the ready queue.
	Scale float64
	// Policy allocates phase quanta (default: the paper's adaptive
	// criterion). Its bounds, if it has any, give way to the ones the
	// planner measures for this host from its second phase on
	// (core.HostMeter).
	Policy core.QuantumPolicy
	// Backend overrides the in-process channel backend (used for TCP
	// workers). The injector is non-nil only when Faults is set. Optional.
	Backend func(clock *Clock, inj *faultinject.Injector) (Backend, error)
	// Faults injects deterministic failures (worker crashes, message
	// drops/delays, link stalls) into the run. Optional.
	Faults *faultinject.Plan
	// Liveness tunes failure detection; zero values select defaults.
	Liveness Liveness
	// Obs observes the run: the host's books move every counter mirrored
	// from RunResult together with its field, so the registry totals
	// reconcile with the final metrics (obs.Mirror). Optional; nil
	// disables observability at the cost of a pointer check per event.
	Obs *obs.Observer
	// Admission applies overload control at the host's front door: the
	// §4.3 feasibility test at enqueue time (hopeless tasks rejected with
	// a typed reason) and a bounded ready queue with policy-driven
	// shedding. The zero value admits everything.
	Admission admission.Config
	// SlackGuard is a deadline guard band for live planning, in virtual
	// time: the host's planning margin (machine.Config.Margin), so every
	// accepted schedule carries at least that much slack to absorb
	// wall-clock jitter. 0 disables.
	SlackGuard time.Duration
	// Clock, when non-nil, is shared with other clusters so a federation's
	// shards agree on virtual time; Run uses it instead of creating its
	// own, and Scale is ignored. Optional.
	Clock *Clock
	// External switches the cluster into externally-fed mode for use as a
	// federation shard: the workload's task list no longer seeds the run —
	// tasks arrive via SubmitBatch, Total counts absorbed submissions, and the
	// run ends once Seal has been called and the backlog has drained. The
	// workload still supplies the worker count, placement and cost model.
	External bool
	// OnReject, when non-nil, is offered every task the admission gate
	// turns away or a total local worker loss strands: returning true takes
	// ownership (the cluster counts the task Bounced and forgets it), false
	// declines (the cluster sheds it, or with no worker left loses it,
	// locally). Called from the host goroutine with no cluster locks held;
	// the callback must not call SubmitBatch on this same cluster. Tasks turned
	// away because the cluster is shutting down are never offered.
	OnReject func(t *task.Task, reason admission.Reason, now simtime.Instant) bool
}

// Summary is a point-in-time load snapshot of one cluster. The type lives
// beside its wire codec so the transport does not import this package.
type Summary = wire.Load

// WorkerLoad summarises the worker half of a Summary at now from the
// instants the ready queues drain: Workers, Alive, QueuedWork and MinFree.
// A nil alive marks every worker alive.
func WorkerLoad(freeAt []simtime.Instant, alive []bool, now simtime.Instant) Summary {
	s := Summary{Workers: len(freeAt), MinFree: simtime.Never}
	for k, f := range freeAt {
		if alive != nil && !alive[k] {
			continue
		}
		s.Alive++
		f = f.Max(now)
		s.QueuedWork += f.Sub(now)
		s.MinFree = s.MinFree.Min(f)
	}
	return s
}

// Cluster drives a live run: one host (the caller's goroutine) plus worker
// goroutines or processes.
type Cluster struct {
	cfg Config

	// Graceful shutdown: Stop publishes grace before closing stop, and the
	// host loop reads it only after observing the close, so the pair needs
	// no lock.
	stop     chan struct{}
	stopOnce sync.Once
	grace    time.Duration

	// External feed (shard mode): feedMu guards feed and sealed; feedTick
	// wakes the host loop on new submissions (buffered 1, coalescing).
	feedMu   sync.Mutex
	feed     []task.Task
	sealed   bool
	feedTick chan struct{}
	slots    [2]int // the host's TaskSlots when Run returned

	// sumMu guards summary, the load snapshot handed out by LoadSummary;
	// loadTick is raised (buffered 1, coalescing) each time the host loop
	// publishes a snapshot that differs from the previous one.
	sumMu    sync.Mutex
	summary  Summary
	loadTick chan struct{}
}

// SubmitBatch feeds a batch of tasks to an externally-fed cluster
// (Config.External) in one locked append. Safe to call from any goroutine
// while Run is in progress; submissions are absorbed by the host loop in
// order, and the loop is woken once per batch rather than once per task. It
// fails once Seal has been called (including the implicit seal when Run
// returns), so a caller can tell a rejected handoff from a silently dropped
// one. The tasks are copied: the caller keeps ownership of the slice and of
// every task in it, and may reuse both once SubmitBatch returns.
func (c *Cluster) SubmitBatch(ts []*task.Task) error {
	if !c.cfg.External {
		return fmt.Errorf("livecluster: SubmitBatch requires Config.External")
	}
	c.feedMu.Lock()
	if c.sealed {
		c.feedMu.Unlock()
		return fmt.Errorf("livecluster: SubmitBatch after Seal")
	}
	for _, t := range ts {
		c.feed = append(c.feed, *t)
	}
	c.feedMu.Unlock()
	select {
	case c.feedTick <- struct{}{}:
	default:
	}
	return nil
}

// Seal closes the external feed: no further SubmitBatch succeeds, and Run ends
// once the already-submitted backlog has drained. Idempotent; safe from
// any goroutine.
func (c *Cluster) Seal() {
	c.feedMu.Lock()
	c.sealed = true
	c.feedMu.Unlock()
	select {
	case c.feedTick <- struct{}{}:
	default:
	}
}

// LoadSummary returns the cluster's most recent load snapshot. The host
// loop republishes it once per scheduling iteration, so it trails the true
// state by at most one phase — good enough for placement, while the target
// shard's own admission gate and planner remain the hard guarantee. That
// bound holds on both federation transports: a wire session forwards every
// changed snapshot in a Progress frame (see LoadChanged).
func (c *Cluster) LoadSummary() Summary {
	c.sumMu.Lock()
	defer c.sumMu.Unlock()
	return c.summary
}

// LoadChanged is signalled after the host loop publishes a load snapshot
// that differs from the previous one; a wire shard's Progress reporter is
// its one receiver. The signal coalesces: one pending tick stands for any
// number of publications, so a receiver reads LoadSummary for the current
// view. At most one goroutine should receive; with none, the host loop pays
// one failed non-blocking send per change.
func (c *Cluster) LoadChanged() <-chan struct{} { return c.loadTick }

// TaskSlots is machine.Host.TaskSlots of the host of a Run that returned.
func (c *Cluster) TaskSlots() (carved, live int) { return c.slots[0], c.slots[1] }

// Stop asks a running cluster to shut down gracefully: the host stops
// admitting work (pending and future arrivals are shed with the
// shutting-down reason), keeps scheduling the already-admitted backlog for
// up to grace of wall time, and then abandons whatever remains. Safe to
// call from any goroutine, concurrently with Run, and more than once —
// only the first call takes effect. Calling Stop before Run makes Run
// drain immediately.
func (c *Cluster) Stop(grace time.Duration) {
	c.stopOnce.Do(func() {
		if grace < 0 {
			grace = 0
		}
		c.grace = grace
		close(c.stop)
	})
}

// phaseClock is the wall-clock budget of the phase in progress, read in
// virtual time from the instant the phase is planned against.
type phaseClock struct {
	clock  *Clock
	origin simtime.Instant
}

// StartAt opens a phase at now, the PhaseInput.Now the planner tests
// feasibility against: whatever the host spends between reading now and
// calling the planner is spent from the quantum, so the phase ends by
// now + Qs as planned.
func (p *phaseClock) StartAt(now simtime.Instant) { p.origin = now }

func (p *phaseClock) Elapsed() time.Duration { return p.clock.Now().Sub(p.origin) }

// New validates the configuration and builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("livecluster: Workload is required")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = policy.RTSADS
	}
	if cfg.Scale == 0 {
		cfg.Scale = 20
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("livecluster: Scale %v must be positive", cfg.Scale)
	}
	if cfg.Policy == nil {
		cfg.Policy = core.NewAdaptive()
	}
	cfg.Liveness = cfg.Liveness.WithDefaults()
	if err := cfg.Admission.Validate(); err != nil {
		return nil, fmt.Errorf("livecluster: %w", err)
	}
	if cfg.SlackGuard < 0 {
		return nil, fmt.Errorf("livecluster: SlackGuard %v must be non-negative", cfg.SlackGuard)
	}
	if cfg.OnReject != nil && !cfg.External {
		return nil, fmt.Errorf("livecluster: OnReject requires External mode")
	}
	c := &Cluster{
		cfg:      cfg,
		stop:     make(chan struct{}),
		feedTick: make(chan struct{}, 1),
		loadTick: make(chan struct{}, 1),
	}
	if cfg.External {
		// Routers may read the summary before Run publishes the first live
		// one: start with an idle, fully-alive shard.
		n := cfg.Workload.Params.Workers
		c.summary = Summary{Workers: n, Alive: n}
	}
	return c, nil
}

// flight is one delivered-but-unfinished job the host tracks so it can be
// reclaimed if its worker dies.
type flight struct {
	t      *task.Task
	worker int
	due    simtime.Instant // planned completion on the worker's queue
}

// runState is the state of one Run, all of it owned by the host goroutine:
// the phase kernel (host, whose Res and Batch are the run's books and
// batch) and what only a live machine has beside it — flights, completions
// and failures streaming in, arrivals still to come, a shutdown.
type runState struct {
	c       *Cluster
	clock   *Clock
	backend Backend
	live    Liveness
	pc      *phaseClock
	o       *obs.Observer

	host     machine.Host
	inflight map[task.ID]flight
	doneCh   <-chan Done
	failCh   <-chan Failure

	alive   []bool
	strikes []int
	pending []*task.Task
	next    int
	taken   []task.Task // the feed buffer absorb last drained

	// Per-phase scratch of Deliver, reused so a phase of one or two tasks
	// does not pay for fresh slices: the job lists indexed by worker
	// (Backend.Deliver is done with a list when it returns).
	jobs    [][]Job
	overdue []bool // checkStragglers: workers with an overdue job
	alarm   *alarm // wait's timer, closed when Run returns

	// adm gates every batch admission (nil admits everything).
	adm *admission.Controller

	// Graceful shutdown: set when c.stop is first observed.
	stopping     bool
	stopDeadline time.Time
}

// Run executes the workload to completion and returns the run's metrics.
// The host is the deterministic machine's (machine.Host.Step: purge, plan a
// phase under a wall-clock quantum budget, book it, deliver it) — except
// that time is real and workers really execute transactions.
//
// Unlike the deterministic machine, the live host also survives worker
// failure: when a worker is detected dead (or a connection cannot be
// re-established), the host removes the processor from the machine,
// reclaims its delivered-but-unfinished jobs, and feeds them back into the
// next scheduling phase. Re-routed tasks pass the same feasibility test as
// everything else, so they either provably meet their deadlines on a
// surviving worker or are counted honestly as lost.
func (c *Cluster) Run() (*metrics.RunResult, error) {
	w := c.cfg.Workload
	clock := c.cfg.Clock
	if clock == nil {
		var err error
		clock, err = NewClock(c.cfg.Scale)
		if err != nil {
			return nil, err
		}
	}
	inj, err := c.cfg.Faults.Bind(clock, w.Params.Workers)
	if err != nil {
		return nil, err
	}
	pc := &phaseClock{clock: clock}
	planner, err := c.makePlanner(pc)
	if err != nil {
		return nil, err
	}
	var adm *admission.Controller
	if c.cfg.Admission.Enabled() {
		if adm, err = admission.New(c.cfg.Admission); err != nil {
			return nil, fmt.Errorf("livecluster: %w", err)
		}
	}

	r := &runState{
		c:        c,
		o:        c.cfg.Obs,
		adm:      adm,
		clock:    clock,
		live:     c.cfg.Liveness,
		pc:       pc,
		inflight: make(map[task.ID]flight),
		alive:    make([]bool, w.Params.Workers),
		strikes:  make([]int, w.Params.Workers),
		jobs:     make([][]Job, w.Params.Workers),
		overdue:  make([]bool, w.Params.Workers),
	}
	for k := range r.alive {
		r.alive[k] = true
	}
	r.host.Reset(machine.Config{
		Workers: w.Params.Workers,
		Planner: planner,
		// A serving shard plans for as long as it runs.
		MaxPhases: math.MaxInt,
		Obs:       c.cfg.Obs,
		Margin:    c.cfg.SlackGuard,
	})
	r.host.Seams = r
	r.host.Res.Algorithm += "/live"
	// Externally-fed shards start empty: their arrivals are submissions.
	if !c.cfg.External {
		r.pending = w.Tasks
		if !slices.IsSortedFunc(r.pending, byArrival) {
			r.pending = slices.Clone(r.pending)
			slices.SortFunc(r.pending, byArrival)
		}
	}

	if r.backend, err = c.makeBackend(clock, inj); err != nil {
		return nil, err
	}
	r.doneCh, r.failCh = r.backend.Done(), r.backend.Failures()
	r.alarm = newTickingAlarm(newKernelTimer())
	defer r.alarm.close()

	hostErr := r.loop()

	// Seal so late Submits error instead of vanishing. A Stop can end the
	// loop with feed left over: it arrives now, shed as shutting down.
	c.Seal()
	r.stopping = true
	r.absorb(clock.Now())

	// Closing drains the worker queues, then closes Done; the host books
	// what completes meanwhile.
	closed := make(chan error, 1)
	go func() { closed <- r.backend.Close() }()
	for d := range r.doneCh {
		r.complete(d)
	}
	closeErr := <-closed

	// Reconcile: any job still registered after the backend drained never
	// completed and was never reclaimed — count it lost rather than let the
	// books quietly not balance.
	for id, fl := range r.inflight {
		delete(r.inflight, id)
		r.host.Lose(fl.t, fl.worker, clock.Now())
	}
	r.o.Inflight(len(r.inflight))
	r.o.RunEnd(clock.Now(), r.host.Res.String())
	c.slots[0], c.slots[1] = r.host.TaskSlots()

	if hostErr != nil {
		return nil, hostErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("livecluster: close backend: %w", closeErr)
	}
	return r.host.Res, nil
}

// loop is the live driver of the phase kernel. Each iteration books what
// the workers and the failure detectors reported, absorbs arrivals and the
// external feed, reclaims from stragglers, publishes the load view, and
// steps the host; it sleeps only when the host has nothing to do before a
// later instant.
func (r *runState) loop() error {
	for {
	drainDone:
		for {
			select {
			case d := <-r.doneCh:
				r.complete(d)
			default:
				break drainDone
			}
		}
	drainFailures:
		for {
			select {
			case f := <-r.failCh:
				r.handleFailure(f)
			default:
				break drainFailures
			}
		}

		now := r.clock.Now()
		if r.checkStop(now) {
			return nil
		}
		r.absorb(now)
		r.checkStragglers(now)
		r.publishSummary(now)
		if r.host.Batch.Len() > 0 && !slices.Contains(r.alive, true) && r.strand(now) {
			return nil
		}

		// The phase starts here, not where the iteration did: absorbing a
		// burst is hundreds of journal writes, and a plan tested against an
		// instant that far back is delivered that much later than it was
		// proven feasible for.
		now = r.clock.Now()
		r.pc.StartAt(now)
		wake, err := r.host.Step(now)
		if err != nil {
			return fmt.Errorf("livecluster: %w", err)
		}
		if r.host.Batch.Len() == 0 && r.drained() {
			return nil // every task delivered and accounted for
		}
		if wake.After(r.host.BusyUntil()) {
			r.wait(wake)
		}
	}
}

// PhaseEnd is the live driver's half of the kernel's first seam: a phase
// ends when the clock says it did, read once it is booked.
func (r *runState) PhaseEnd(simtime.Instant, time.Duration) simtime.Instant {
	return r.clock.Now()
}

// Deliver is the live driver's half of the kernel's second seam: each
// assignment becomes a flight due at serve(freeAt, at, p + c) — the
// timeline the worker executes by — and a Job for Backend.Deliver. No
// worker queue needs a cap: every job fits its deadline (§4.3), so a
// worker's queued work never reaches past the latest deadline it holds.
func (r *runState) Deliver(phase int, at simtime.Instant, schedule []search.Assignment) error {
	perWorker := r.jobs
	for k := range perWorker {
		perWorker[k] = perWorker[k][:0]
	}
	freeAt := r.host.FreeAt
	for _, a := range schedule {
		t, k := a.Task, a.Proc
		due := serve(freeAt[k], at, t.Proc+a.Comm)
		freeAt[k] = due
		r.inflight[t.ID] = flight{t: t, worker: k, due: due}
		perWorker[k] = append(perWorker[k], Job{
			Task: int32(t.ID),
			Txn:  t.Payload,
			// Workers occupy the task's actual processing time; the host
			// planned with the worst case, so early finishes are reclaimed
			// by the next queued job.
			Proc:     t.ActualProc(),
			Comm:     a.Comm,
			Deadline: t.Deadline,
		})
		r.o.Deliver(phase, t.ID, k, a.Comm, at)
	}
	r.o.Inflight(len(r.inflight))
	for k, jobs := range perWorker {
		if len(jobs) == 0 {
			continue
		}
		if err := r.backend.Deliver(k, jobs); err != nil {
			return fmt.Errorf("deliver to worker %d: %w", k, err)
		}
	}
	return nil
}

// complete books one completion; the books judge it against the task's
// authoritative deadline (machine.Host.Exec). Completions for tasks no
// longer in flight (already reclaimed from a worker declared failed) are
// dropped so every task is counted exactly once.
func (r *runState) complete(d Done) {
	fl, ok := r.inflight[task.ID(d.Task)]
	if !ok {
		return
	}
	delete(r.inflight, task.ID(d.Task))
	r.o.Inflight(len(r.inflight))
	if d.Expired {
		// The worker shed the job at its queue head: the deadline was
		// already unreachable, so it missed without execution — the same
		// purge condition the host applies to its batch, enforced one tier
		// down.
		r.host.Purge(fl.t, d.Start)
		return
	}
	r.host.Exec(fl.t, d.Worker, d.Start, d.Finish, d.Err == "")
}

// drained reports that every task the run will see is delivered and
// accounted for: no arrival is still to come — for a shard, the feed is
// sealed and absorbed — and nothing is in flight.
func (r *runState) drained() bool {
	if len(r.inflight) > 0 {
		return false
	}
	if r.c.cfg.External {
		return r.feedDone()
	}
	return r.next >= len(r.pending)
}

// strand settles the batch when no local worker survives, and reports
// whether the run is over. A shard offers each task to its router and loses
// what the router declines; it keeps running so later submissions bounce the
// same way, and still ends on seal-and-drain. A standalone cluster loses the
// batch and every arrival still to come.
func (r *runState) strand(now simtime.Instant) bool {
	stranded := r.host.Batch.PurgeMissed(simtime.Never)
	if r.c.cfg.External {
		for _, t := range stranded {
			if cb := r.c.cfg.OnReject; cb != nil && cb(t, admission.ShardDown, now) {
				r.host.Bounce(t, admission.ShardDown, now)
			} else {
				r.host.Lose(t, -1, now)
			}
		}
		return false
	}
	for _, t := range stranded {
		r.host.Lose(t, -1, now)
	}
	for _, t := range r.pending[r.next:] {
		r.host.Arrive(t, now)
		r.host.Lose(t, -1, now)
	}
	r.next = len(r.pending)
	return true
}

// byArrival is the order absorb takes the workload's tasks in: by arrival,
// and tasks that arrive together by deadline, then ID.
func byArrival(a, b *task.Task) int {
	if c := cmp.Compare(a.Arrival, b.Arrival); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Deadline, b.Deadline); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// absorb books every arrival due by now — the workload's, then the
// external feed's — and offers each to the admission gate.
func (r *runState) absorb(now simtime.Instant) {
	for r.next < len(r.pending) && !r.pending[r.next].Arrival.After(now) {
		t := r.pending[r.next]
		r.next++
		r.arrive(t, t.Arrival, now)
	}
	if r.c.cfg.External {
		feed := r.takeFeed()
		for i := range feed {
			r.arrive(r.host.Take(&feed[i]), now, now)
		}
	}
}

// arrive books one arrival at at and runs it through the admission gate at
// now, or sheds it once the cluster is stopping. A task the gate turns away
// is offered to the federation router, when one is attached, before it is
// shed.
func (r *runState) arrive(t *task.Task, at, now simtime.Instant) {
	r.host.Arrive(t, at)
	if r.stopping {
		r.host.Shed(t, admission.ShuttingDown, now)
		return
	}
	r.host.Admit(t, now, r.adm, r.c.cfg.OnReject)
}

// checkStop notices a Stop request. On the first observation it stops
// admission — every task that has not yet entered the batch is shed — and
// starts the drain-grace clock; once the grace expires it sheds the
// remaining backlog and reports true, ending the loop. Jobs already
// delivered to workers still drain through backend.Close.
func (r *runState) checkStop(now simtime.Instant) bool {
	if !r.stopping {
		select {
		case <-r.c.stop:
			r.stopping = true
			r.stopDeadline = time.Now().Add(r.c.grace)
			for _, t := range r.pending[r.next:] {
				r.arrive(t, now, now)
			}
			r.next = len(r.pending)
		default:
			return false
		}
	}
	if time.Now().After(r.stopDeadline) {
		for _, t := range r.host.Batch.PurgeMissed(simtime.Never) {
			r.host.Shed(t, admission.ShuttingDown, now)
		}
		return true
	}
	return false
}

// handleFailure marks the worker (a fatally failed worker leaves the
// machine), reclaims its delivered-but-unfinished jobs, and feeds the ones
// that can still meet their deadlines back into the batch. A reclaimed task
// was admitted once, so a drain keeps scheduling it like the rest of the
// backlog.
func (r *runState) handleFailure(f Failure) {
	k := f.Worker
	if k < 0 || k >= len(r.alive) {
		return
	}
	now := r.clock.Now()
	if f.Fatal && r.alive[k] {
		r.alive[k] = false
		r.host.Fail(k, f.At, f.Err)
	} else if !f.Fatal {
		r.o.WorkerDown(k, false, f.Err, f.At)
	}
	var reclaimed []*task.Task
	for id, fl := range r.inflight {
		if fl.worker == k {
			delete(r.inflight, id)
			reclaimed = append(reclaimed, fl.t)
		}
	}
	r.o.Inflight(len(r.inflight))
	// Map iteration order is random; keep the re-fed batch deterministic.
	// A task too late to restart anywhere is lost to the failure. The rest
	// pass back through the admission gate: the queue cap still binds, and a
	// task that became hopeless while in flight is shed now rather than after
	// burning another phase's quantum.
	task.SortEDF(reclaimed)
	for _, t := range reclaimed {
		if t.Missed(now) {
			r.host.Lose(t, k, now)
		} else {
			r.host.Reroute(t, k, now, r.adm, r.c.cfg.OnReject)
		}
	}
	if r.alive[k] {
		// The worker survived (reconnected or merely straggling) but its
		// queue state is unknown; the host's backlog model restarts empty.
		r.host.FreeAt[k] = now
	}
}

// checkStragglers reclaims from workers whose oldest in-flight job is
// overdue by more than the straggler grace — the transport-agnostic second
// line of defence behind heartbeats (and the only one the in-process
// backend needs for dropped messages). Repeat offenders are removed from
// the machine.
func (r *runState) checkStragglers(now simtime.Instant) {
	grace := r.live.StragglerGrace
	overdue := r.overdue
	clear(overdue)
	for _, fl := range r.inflight {
		if r.alive[fl.worker] && now.After(fl.due.Add(grace)) {
			overdue[fl.worker] = true
		}
	}
	for k, late := range overdue {
		if !late {
			continue
		}
		r.o.StragglerReclaim(k, now)
		r.strikes[k]++
		r.handleFailure(Failure{
			Worker: k,
			At:     now,
			Fatal:  r.strikes[k] >= r.live.StragglerStrikes,
			Err:    fmt.Sprintf("livecluster: worker %d overdue by more than %v", k, grace),
		})
	}
}

// wait sleeps until until — the host's own next instant — or the earliest
// live event before it: an arrival or a straggler deadline; or until a
// completion, a failure, a submission or a Stop request comes in.
// Completions and failures are booked before returning. While draining for
// shutdown the sleep is clamped to the drain deadline so the grace is
// honoured.
func (r *runState) wait(until simtime.Instant) {
	if r.next < len(r.pending) {
		until = until.Min(r.pending[r.next].Arrival)
	}
	for _, fl := range r.inflight {
		until = until.Min(fl.due.Add(r.live.StragglerGrace + 1))
	}
	if until == simtime.Never {
		// Nothing scheduled to happen: poll at a coarse safety tick so an
		// unforeseen state change cannot strand the host.
		until = r.clock.Now().Add(10 * time.Millisecond)
	}
	d := r.clock.WallUntil(until)
	var stopC <-chan struct{}
	if !r.stopping {
		// Once stopping is observed the closed channel would win every
		// select; leave it nil and rely on the deadline clamp instead.
		stopC = r.c.stop
	} else if dl := time.Until(r.stopDeadline); dl < d {
		d = dl
	}
	if d <= 0 {
		return
	}
	var feedC <-chan struct{}
	if r.c.cfg.External {
		feedC = r.c.feedTick
	}
	r.alarm.arm(d)
	select {
	case <-r.alarm.tick:
	case f := <-r.failCh:
		r.handleFailure(f)
	case d := <-r.doneCh:
		r.complete(d)
	case <-feedC:
	case <-stopC:
	}
}

// takeFeed drains the external feed, handing it back the buffer the previous
// call drained. Host goroutine (and post-loop cleanup) only.
func (r *runState) takeFeed() []task.Task {
	c := r.c
	c.feedMu.Lock()
	ts := c.feed
	c.feed = r.taken[:0]
	c.feedMu.Unlock()
	r.taken = ts
	return ts
}

// feedDone reports that the external feed is sealed and fully absorbed.
func (r *runState) feedDone() bool {
	c := r.c
	c.feedMu.Lock()
	defer c.feedMu.Unlock()
	return c.sealed && len(c.feed) == 0
}

// publishSummary refreshes the load snapshot a federation router reads via
// LoadSummary and raises LoadChanged when it moved. Host goroutine only;
// never blocks; no-op outside external mode.
func (r *runState) publishSummary(now simtime.Instant) {
	if !r.c.cfg.External {
		return
	}
	s := WorkerLoad(r.host.FreeAt, r.alive, now)
	s.Backlog = r.host.Batch.Len()
	s.Inflight = len(r.inflight)
	r.c.feedMu.Lock()
	s.Backlog += len(r.c.feed)
	s.Sealed = r.c.sealed
	r.c.feedMu.Unlock()
	r.c.sumMu.Lock()
	changed := s != r.c.summary
	r.c.summary = s
	r.c.sumMu.Unlock()
	if changed {
		select {
		case r.c.loadTick <- struct{}{}:
		default:
		}
	}
}

func (c *Cluster) makeBackend(clock *Clock, inj *faultinject.Injector) (Backend, error) {
	if c.cfg.Backend != nil {
		return c.cfg.Backend(clock, inj)
	}
	return NewBoundedChannelBackend(clock, c.cfg.Workload, 0, inj, c.cfg.Obs), nil
}

// makePlanner builds the run's one planner, over every worker: search slot
// k is working processor k. A worker that dies stays in the machine with
// the load of a crashed one (machine.Host.Fail), so the same feasibility
// test (t_c + RQs(j) + se_lk <= d_l) re-routes its tasks across the
// survivors with their true communication costs.
func (c *Cluster) makePlanner(pc *phaseClock) (core.Planner, error) {
	cost := c.cfg.Workload.Cost
	opts := policy.Options{Search: core.SearchConfig{
		Workers: c.cfg.Workload.Params.Workers,
		Comm: func(t *task.Task, k int) time.Duration {
			return cost.Cost(t.Affinity, k)
		},
		Policy: c.cfg.Policy,
		// Wall-clock quantum budget: the host's real scheduling speed,
		// converted to virtual time, counted from each phase's Now. The
		// planner also sizes its quantum bounds by it.
		Clock: pc.Elapsed,
	}}
	p, err := policy.Default().New(string(c.cfg.Algorithm), opts)
	if err != nil {
		return nil, fmt.Errorf("livecluster: %w", err)
	}
	return p, nil
}

// ChannelBackend runs one goroutine per worker, each serving its own ready
// queue — the in-process interconnect. With an injector it simulates crashes
// (the worker goroutine stops consuming at the kill time and a fatal Failure
// is reported), dropped and delayed deliveries, and stalled links.
type ChannelBackend struct {
	clock    *Clock
	inj      *faultinject.Injector
	jobs     []*readyQueue
	done     *completions
	failures chan Failure
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewBoundedChannelBackend spawns the workers for the workload. inj and o
// may be nil. The int parameter is unused: it was a per-worker queue cap,
// and it stays only so the callers that still pass 0 keep compiling, since
// §4.3 already bounds every worker queue.
func NewBoundedChannelBackend(clock *Clock, w *workload.Workload, _ int, inj *faultinject.Injector, o *obs.Observer) *ChannelBackend {
	b := &ChannelBackend{
		clock:    clock,
		inj:      inj,
		jobs:     make([]*readyQueue, w.Params.Workers),
		failures: make(chan Failure, w.Params.Workers),
		stop:     make(chan struct{}),
		done:     newCompletions(w.Params.Workers),
	}
	for i := range b.jobs {
		b.jobs[i] = newReadyQueue()
		var quit chan struct{}
		if killAt, ok := inj.KillAt(i); ok {
			quit = make(chan struct{})
			go b.killer(i, killAt, quit)
		}
		wk := NewWorker(i, clock, w).Observe(o)
		b.wg.Add(1)
		go func(q *readyQueue, quit <-chan struct{}) {
			defer b.wg.Done()
			wk.RunUntil(q, b.done.in, quit)
		}(b.jobs[i], quit)
		if o != nil {
			go b.heartbeats(i, o, quit)
		}
	}
	return b
}

// heartbeats reports worker i alive at the default liveness cadence while
// it runs. In-process goroutines cannot really die silently, so this is
// simulated liveness evidence — it exists so an observed inproc run
// carries the same event stream (heartbeat instants in the journal, trace
// and counters) as a TCP run, and stops when the worker is killed.
func (b *ChannelBackend) heartbeats(i int, o *obs.Observer, quit <-chan struct{}) {
	ticker := time.NewTicker(Liveness{}.WithDefaults().HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			o.HeartbeatRecv(i, b.clock.Now())
		case <-quit: // a killed worker stops heartbeating (nil when no kill)
			return
		case <-b.stop:
			return
		}
	}
}

// killer crashes worker i at its injected kill time: the worker goroutine
// stops consuming and the failure is reported as if a detector had fired.
func (b *ChannelBackend) killer(i int, at simtime.Instant, quit chan struct{}) {
	timer := time.NewTimer(b.clock.WallUntil(at))
	defer timer.Stop()
	select {
	case <-timer.C:
		close(quit)
		b.failures <- Failure{Worker: i, At: b.clock.Now(), Fatal: true, Err: "faultinject: worker killed"}
	case <-b.stop:
	}
}

// Deliver implements Backend.
func (b *ChannelBackend) Deliver(proc int, jobs []Job) error {
	if proc < 0 || proc >= len(b.jobs) {
		return fmt.Errorf("livecluster: worker %d out of range", proc)
	}
	if until, ok := b.inj.StallUntil(proc); ok {
		b.clock.SleepUntil(until)
	}
	for _, j := range jobs {
		f := b.inj.OnSend(proc)
		if f.Drop {
			continue // dropped in transit: never occupies the queue
		}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		j.Ready = b.clock.Now() // after any injected delay: when it really queued
		b.jobs[proc].push(j)
	}
	return nil
}

// Done implements Backend.
func (b *ChannelBackend) Done() <-chan Done { return b.done.out }

// Failures implements Backend.
func (b *ChannelBackend) Failures() <-chan Failure { return b.failures }

// Close implements Backend: close the ready queues, wait for workers to
// drain them, then close the completion stream once the host has read it.
func (b *ChannelBackend) Close() error {
	close(b.stop)
	for _, q := range b.jobs {
		q.close()
	}
	b.wg.Wait()
	b.done.close()
	return nil
}
