package federation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/livecluster"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// SimConfig configures a deterministic federated simulation: the analytic
// counterpart of the live federation. It is a driver, not a model of its
// own: placement, migration and salvage are the routing core the live router
// runs (core.go), and every shard's host is the machine package's
// virtual-time host step, so a one-shard simulation is machine.Run. What the
// simulation supplies is the global virtual clock advancing event by event,
// the shards' inboxes and admission gates, and exact shard state in place of
// the live router's one-phase-stale load summaries — which makes runs
// bit-for-bit reproducible, the form the acceptance tests and the throughput
// benchmark use.
type SimConfig struct {
	// Workload is the global problem instance; Params.Workers must equal
	// Topology.TotalWorkers(). Required.
	Workload *workload.Workload
	// Topology partitions the worker pool. Required.
	Topology Topology
	// Placement selects the routing policy (default affinity-first).
	Placement Placement
	// Migrate enables cross-shard migration of admission rejects.
	Migrate bool
	// Algorithm selects each shard's planner (default RT-SADS).
	Algorithm policy.Algorithm
	// VertexCost is the virtual scheduling time charged per search vertex
	// (default 1µs — the deterministic model of host scheduling speed).
	VertexCost time.Duration
	// PhaseCost is a fixed virtual scheduling time charged per phase
	// (default 0).
	PhaseCost time.Duration
	// Admission configures each shard's gate; the zero value admits
	// everything (rejection then only happens on migration-eligible
	// hopeless/queue-full verdicts when enabled).
	Admission admission.Config
	// Obs, when non-nil, must hold one observer per shard; each shard
	// host's books mirror into its observer exactly as a live cluster's do,
	// so registry totals reconcile with the per-shard results.
	Obs []*obs.Observer
	// BatchCap bounds how many same-instant arrivals are placed per routing
	// chunk: each chunk sees one consistent snapshot of the shard views
	// (with the Submitted tie-break updated task by task inside it) and is
	// handed to each destination shard as one batch. Zero means one chunk
	// per same-instant arrival group. Any value produces bit-identical
	// results: between two tasks arriving at the same instant no shard
	// steps, so only Submitted — which the chunk tracks incrementally —
	// distinguishes their view snapshots.
	BatchCap int
	// Transport, when non-nil, intercepts every localized router→shard
	// batch on its way to the shard's inbox. It must return the same tasks
	// (by value) in the same order; the wire differential tests use it to
	// round-trip each batch through the binary shard protocol over a real
	// TCP connection and prove the encoding changes nothing.
	Transport func(shard int, batch []*task.Task) []*task.Task
	// ShardEvents injects deterministic shard lifecycle events on the
	// virtual clock — the analytic model of the live tier's kill→salvage→
	// rejoin machinery. A kill salvages the shard's queued tasks through
	// the migration gate (rescued on a feasible sibling or charged lost to
	// the dead shard) and removes it from placement; a rejoin restores it
	// with idle workers, folding into the same per-shard books exactly as
	// the live router folds a rejoined session. Flap probation is a
	// wall-clock construct and is not modeled here. Events apply in At
	// order (ties keep config order) before same-instant arrivals route.
	ShardEvents []ShardEvent
}

// ShardEventKind names a simulated shard lifecycle transition.
type ShardEventKind string

const (
	// ShardKill marks a shard dead at the event instant: queued tasks are
	// salvaged to feasible siblings or charged lost, and the shard takes
	// no further placements. Tasks the shard had already scheduled keep
	// their verdicts (the analytic model settles work at scheduling time).
	ShardKill ShardEventKind = "kill"
	// ShardRejoin revives a previously killed shard with all workers idle.
	ShardRejoin ShardEventKind = "rejoin"
)

// ShardEvent is one deterministic lifecycle event.
type ShardEvent struct {
	At    simtime.Instant
	Shard int
	Kind  ShardEventKind
}

// simShard is one scheduler domain of the simulation: the shared host step
// behind an inbox and an admission gate.
type simShard struct {
	id    int
	host  machine.Host
	inbox []task.Task
	adm   *admission.Controller
	// bounce offers a task the gate turns away to the routing core.
	bounce machine.BounceFunc
	o      *obs.Observer
	// wakeAt is the next instant this shard must run: its host's own wake
	// instant, pulled earlier by a submission. Never while it holds nothing.
	wakeAt simtime.Instant
	// dead marks a shard killed by a ShardEvent: zero alive workers in the
	// views, and any task submitted to it is salvaged instead of queued.
	dead bool
	// planner is kept across pooled runs while what it is built from
	// (plannerKey) matches, so its search scratch stays warm. Its quantum
	// policy and host meter keep no state on virtual time.
	planner    core.Planner
	plannerKey plannerKey
}

// plannerKey is what a shard's planner is built from, bar the workload.
type plannerKey struct {
	algo          policy.Algorithm
	workers       int
	vertex, phase time.Duration
}

// simFed is the simulation-side driver of the routing core.
type simFed struct {
	cfg    SimConfig
	rt     routeCore
	shards []*simShard

	// events is the At-sorted lifecycle schedule; eventIdx is the cursor.
	events   []ShardEvent
	eventIdx int
	rejoinsN int
}

// simPool recycles the simulation's scratch graph — shard structs, batches,
// inboxes, task slots, the routing core's stages and view snapshot, and the
// shards' planners — across Simulate calls, so parameter sweeps and the
// throughput benchmark run nearly allocation-free once warm. Per-shard
// results are always built fresh: they escape to the caller.
var simPool = sync.Pool{New: func() any { return new(simFed) }}

// reset configures the pooled state for one run. Every field is either
// rebuilt from cfg or rewound in place with its storage kept.
func (f *simFed) reset(cfg SimConfig) error {
	f.cfg = cfg
	tp := cfg.Topology
	f.rt.reset(f, tp, cfg.Placement, cfg.Migrate, cfg.Workload.Cost.Remote, cfg.Workload.Tasks)
	// The *simShard structs (and everything hanging off them) are the
	// pool's payload: keep the ones a smaller topology leaves unused.
	f.shards = f.shards[:cap(f.shards)]
	for len(f.shards) < tp.Shards {
		f.shards = append(f.shards, nil)
	}
	f.shards = f.shards[:tp.Shards]
	f.events = append(f.events[:0], cfg.ShardEvents...)
	sort.SliceStable(f.events, func(a, b int) bool { return f.events[a].At.Before(f.events[b].At) })
	f.eventIdx, f.rejoinsN = 0, 0

	// Every shard shares one communication-cost closure: task affinities are
	// already shard-local by the time a planner sees them, and the cost
	// constant is topology-independent (ShardWorkload keeps Cost verbatim).
	// It reads the workload of the run in progress, so a kept planner's
	// closure prices the current run.
	comm := func(t *task.Task, slot int) time.Duration {
		return f.cfg.Workload.Cost.Cost(t.Affinity, slot)
	}
	key := plannerKey{cfg.Algorithm, tp.WorkersPerShard, cfg.VertexCost, cfg.PhaseCost}
	for i := range f.shards {
		sh := f.shards[i]
		if sh == nil {
			sh = new(simShard)
			f.shards[i] = sh
		}
		var err error
		if sh.planner == nil || sh.plannerKey != key {
			sh.planner, err = policy.Default().New(string(cfg.Algorithm), policy.Options{Search: core.SearchConfig{
				Workers:    tp.WorkersPerShard,
				Comm:       comm,
				VertexCost: cfg.VertexCost,
				PhaseCost:  cfg.PhaseCost,
				Policy:     core.NewAdaptive(),
			}})
			if err != nil {
				return fmt.Errorf("federation: %w", err)
			}
			sh.plannerKey = key
		}
		sh.adm = nil
		if cfg.Admission.Enabled() {
			if sh.adm, err = admission.New(cfg.Admission); err != nil {
				return fmt.Errorf("federation: %w", err)
			}
		}
		sh.o = nil
		if cfg.Obs != nil {
			sh.o = cfg.Obs[i]
		}
		sh.id = i
		sh.bounce = func(t *task.Task, reason admission.Reason, now simtime.Instant) bool {
			return f.rt.bounce(sh.id, t.ID, string(reason), now)
		}
		sh.host.Reset(machine.Config{
			Workers:    tp.WorkersPerShard,
			Planner:    sh.planner,
			MinAdvance: machine.DefaultMinAdvance,
			MaxPhases:  machine.DefaultMaxPhases,
			Obs:        sh.o,
		})
		sh.host.Res.Algorithm += "/sim"
		sh.inbox = sh.inbox[:0]
		sh.wakeAt = simtime.Never
		sh.dead = false
	}
	return nil
}

// Simulate runs the federated workload to completion on virtual time and
// returns the per-shard results plus the router's counters. Identical
// configurations always produce identical results.
func Simulate(cfg SimConfig) (*Result, error) {
	f, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	res, err := f.run()
	if err != nil {
		return nil, err // let the GC take the state
	}
	simPool.Put(f)
	return res, nil
}

// newSim validates the configuration, applies its defaults and readies a
// pooled simulation for run.
func newSim(cfg SimConfig) (*simFed, error) {
	if err := cfg.Topology.validateFor(cfg.Workload); err != nil {
		return nil, err
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = policy.RTSADS
	}
	if cfg.VertexCost <= 0 {
		cfg.VertexCost = time.Microsecond
	}
	if cfg.Obs != nil && len(cfg.Obs) != cfg.Topology.Shards {
		return nil, fmt.Errorf("federation: %d observers for %d shards", len(cfg.Obs), cfg.Topology.Shards)
	}
	if err := cfg.Admission.Validate(); err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	for i, e := range cfg.ShardEvents {
		if e.Shard < 0 || e.Shard >= cfg.Topology.Shards {
			return nil, fmt.Errorf("federation: shard event %d targets shard %d of %d", i, e.Shard, cfg.Topology.Shards)
		}
		if e.Kind != ShardKill && e.Kind != ShardRejoin {
			return nil, fmt.Errorf("federation: shard event %d has unknown kind %q", i, e.Kind)
		}
	}
	f := simPool.Get().(*simFed)
	if err := f.reset(cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// run is the event loop: apply lifecycle events, route the arrivals due,
// step every due shard, advance the clock to the next event.
func (f *simFed) run() (*Result, error) {
	tasks := f.cfg.Workload.Tasks // sorted by arrival
	now := simtime.Instant(0)
	next := 0
	for {
		// Lifecycle events apply first, so same-instant arrivals route
		// against the post-event shard set (a killed shard takes none of
		// them; a rejoined shard is immediately placeable).
		f.applyEvents(now)
		// All arrivals due at this instant form one batch: no shard steps
		// between them, so a single view snapshot (per BatchCap chunk)
		// places them exactly as per-task routing would.
		if start := next; start < len(tasks) && !tasks[start].Arrival.After(now) {
			for next < len(tasks) && !tasks[next].Arrival.After(now) {
				next++
			}
			f.routeBatch(tasks[start:next], now)
		}
		// Step every due shard; migrations refill sibling inboxes at the
		// same instant, so iterate until the round is quiet. A shard that
		// planned wakes strictly after now, and migration chains are bounded
		// by the per-task tried sets, so the inner loop terminates.
		for stepped := true; stepped; {
			stepped = false
			for _, sh := range f.shards {
				if sh.wakeAt.After(now) {
					continue
				}
				if err := sh.step(now); err != nil {
					return nil, err
				}
				stepped = true
			}
		}
		event := simtime.Never
		if next < len(tasks) {
			event = tasks[next].Arrival
		}
		if f.eventIdx < len(f.events) {
			event = event.Min(f.events[f.eventIdx].At)
		}
		for _, sh := range f.shards {
			event = event.Min(sh.wakeAt)
		}
		if event == simtime.Never {
			break // no arrivals, no pending work: workers just drain
		}
		now = event
	}

	res := f.rt.result()
	res.Rejoins = f.rejoinsN
	res.Shards = make([]*metrics.RunResult, len(f.shards))
	for i, sh := range f.shards {
		res.Shards[i] = sh.host.Res
		if sh.o != nil {
			// The method is nil-receiver-safe, but rendering its argument
			// is not free: skip the summary formatting entirely when nobody
			// observes it (the benchmark path).
			sh.o.RunEnd(now, sh.host.Res.String())
		}
	}
	return res, nil
}

// routeBatch places a group of same-instant arrivals, BatchCap tasks at a
// time, handing each destination shard its staged sub-batch in one append.
func (f *simFed) routeBatch(ts []*task.Task, now simtime.Instant) {
	for len(ts) > 0 {
		n := len(ts)
		if f.cfg.BatchCap > 0 && n > f.cfg.BatchCap {
			n = f.cfg.BatchCap
		}
		f.rt.place(ts[:n], now)
		for s, staged := range f.rt.stage {
			if len(staged) > 0 {
				f.handoff(s, staged, now) // an inbox append cannot fail
				f.rt.stage[s] = staged[:0]
			}
		}
		ts = ts[n:]
	}
}

// handoff hands one localized batch to a shard's inbox, through the wire
// transport when one is configured; it cannot fail. A dead shard (every
// shard dead, so the fallback placement still charged it) strands the batch
// at once — the analytic form of the live router's failed-submit salvage.
func (f *simFed) handoff(s int, batch []*task.Task, now simtime.Instant) error {
	if f.cfg.Transport != nil {
		batch = f.cfg.Transport(s, batch)
	}
	sh := f.shards[s]
	for _, t := range batch {
		sh.inbox = append(sh.inbox, *t)
	}
	if sh.dead {
		sh.strandInbox(f, now)
		return nil
	}
	// The host absorbs its inbox when it next runs: now when idle, else
	// when the phase in progress delivers — it runs one phase at a time.
	sh.wakeAt = sh.wakeAt.Min(now.Max(sh.host.BusyUntil()))
	return nil
}

// load reads a shard's exact worker state: the simulation has no summary
// staleness and no quarantine.
func (f *simFed) load(i int, now simtime.Instant) (livecluster.Summary, bool) {
	if sh := f.shards[i]; !sh.dead {
		return livecluster.WorkerLoad(sh.host.FreeAt, nil, now), true
	}
	return livecluster.Summary{MinFree: simtime.Never}, true
}

// The simulation has no router journal: each span lands in the journal of
// the shard it concerns, so merged lifecycles stay complete.
func (f *simFed) notePlaced(t *task.Task, s int, now simtime.Instant) {
	f.shards[s].o.Route(t.ID, s, f.rt.routeDetail, now)
}

func (f *simFed) noteMigrated(m migration, now simtime.Instant) {
	if o := f.shards[m.to].o; o != nil {
		o.Migrate(m.task.ID, m.to, m.detail(now), now)
	}
}

func (f *simFed) noteDeclined(id task.ID, from int, reason string, now simtime.Instant) {
	f.shards[from].o.RouteReject(id, reason, now)
}

// applyEvents fires every lifecycle event due at the instant, in schedule
// order. Kills are idempotent (a dead shard stays dead) and rejoins only
// revive dead shards.
func (f *simFed) applyEvents(now simtime.Instant) {
	for f.eventIdx < len(f.events) && !f.events[f.eventIdx].At.After(now) {
		e := f.events[f.eventIdx]
		f.eventIdx++
		sh := f.shards[e.Shard]
		switch e.Kind {
		case ShardKill:
			if !sh.dead {
				sh.kill(f, now)
			}
		case ShardRejoin:
			if sh.dead {
				sh.dead = false
				f.rejoinsN++
				// A restarted process comes back with idle workers: the
				// dead shard's queued commitments were salvaged at the
				// kill, and its in-flight work settled at scheduling time.
				sh.host.Restart(now)
			}
		}
	}
}

// kill marks the shard dead and strands everything it still held: the
// unabsorbed inbox (so the dead shard is charged with every task it was
// handed) and the admitted-but-unscheduled batch. Scheduled tasks keep their
// verdicts — the analytic model settles work at scheduling time.
func (sh *simShard) kill(f *simFed, now simtime.Instant) {
	sh.dead = true
	sh.strandInbox(f, now)
	for _, t := range sh.host.Batch.Tasks() {
		sh.strand(f, t, now)
	}
	sh.host.Batch.Reset()
	sh.wakeAt = simtime.Never
}

// strandInbox books the tasks handed to the dead shard, then strands each.
func (sh *simShard) strandInbox(f *simFed, now simtime.Instant) {
	for i := range sh.inbox {
		t := sh.host.Take(&sh.inbox[i])
		sh.host.Arrive(t, now)
		sh.strand(f, t, now)
	}
	sh.inbox = sh.inbox[:0]
}

// strand settles one task the dead shard still held: the router salvages it
// onto a feasible sibling (this shard books a bounce) or it is lost with the
// shard.
func (sh *simShard) strand(f *simFed, t *task.Task, now simtime.Instant) {
	if f.rt.salvage(sh.id, t.ID, "shard-death", now) {
		sh.host.Bounce(t, "shard-death", now)
	} else {
		sh.host.Lose(t, -1, now)
	}
}

// step runs the shard's host at the global instant: absorb the inbox
// through the admission gate, then the shared scheduling step.
func (sh *simShard) step(now simtime.Instant) error {
	// Rejections inside the admit loop refill sibling inboxes, never this
	// shard's own: migration excludes the rejecting shard.
	for i := range sh.inbox {
		t := sh.host.Take(&sh.inbox[i])
		sh.host.Arrive(t, now)
		sh.host.Admit(t, now, sh.adm, sh.bounce)
	}
	sh.inbox = sh.inbox[:0]
	wake, err := sh.host.Step(now)
	if err != nil {
		return fmt.Errorf("federation: shard %d: %w", sh.id, err)
	}
	sh.wakeAt = wake
	return nil
}
