package federation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/faultinject"
	"rtsads/internal/livecluster"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// Config configures a live federated run.
type Config struct {
	// Workload is the global problem instance; its Params.Workers must
	// equal Topology.TotalWorkers(). Required.
	Workload *workload.Workload
	// Topology partitions the worker pool. Required.
	Topology Topology
	// Placement selects the routing policy (default affinity-first).
	Placement Placement
	// Migrate enables deadline-safe cross-shard migration of rejected
	// tasks; without it every shard rejection is shed locally.
	Migrate bool

	// Algorithm, Scale, Liveness, Admission and SlackGuard configure every
	// shard identically; see livecluster.Config. Faults is a global plan
	// split by worker range across the shards.
	Algorithm  policy.Algorithm
	Scale      float64
	Faults     *faultinject.Plan
	Liveness   livecluster.Liveness
	Admission  admission.Config
	SlackGuard time.Duration

	// JournalCap bounds each shard's journal (<= 0 selects
	// obs.DefaultJournalCap; at most obs.MaxJournalCap). A remote shard's
	// end-of-session journal claiming more entries ends its session.
	JournalCap int
	// SettleTimeout bounds the wall-clock wait for every task to reach a
	// terminal bucket after the last submission (default 2 minutes); on
	// expiry the run is sealed anyway and Reconcile reports the imbalance.
	SettleTimeout time.Duration

	// BatchCap bounds how many due arrivals the router places per batched
	// routing decision (one view snapshot per batch). Zero means
	// unbounded: everything due at an instant routes against one snapshot.
	BatchCap int
	// ShardAddrs, when non-empty, runs every shard out of process: the
	// router dials one shard server (rtcluster -shard-listen) per address
	// and drives it over the federation wire protocol instead of building
	// in-process clusters. Length must equal Topology.Shards. Fault plans
	// inject into in-process shards only; with ShardAddrs, kill the shard
	// process itself (the chaos suite does exactly that).
	ShardAddrs []string
	// Rejoin enables restart/rejoin: after a session loss the router keeps
	// redialling the shard's address with capped jittered backoff and
	// replays a Rejoin hello when the process comes back, so a restarted
	// process can re-handshake and serve placements again. Salvage runs
	// either way. Requires ShardAddrs (an in-process shard has no process
	// to restart).
	Rejoin bool
}

// shardHandle is one scheduler shard as the router sees it: in-process
// (localShard) or a remote process behind the wire protocol (remoteShard).
type shardHandle interface {
	// SubmitBatch hands the shard a localized batch in order.
	SubmitBatch(ts []*task.Task) error
	// LoadSummary is the shard's latest load snapshot.
	LoadSummary() livecluster.Summary
	// SettledTasks counts the shard's tasks whose fate is decided. For a
	// dead remote shard every routed task counts: they are lost, which is
	// a settled fate.
	SettledTasks() int64
	// Seal closes the shard's feed.
	Seal()
	// Wait blocks until the shard's run completes and returns its result.
	Wait() (*metrics.RunResult, error)
	// Journal exports the shard's journal entries and eviction count.
	Journal() ([]obs.Entry, int64)
	// Placeable reports whether the router may place new work here right
	// now. A shard can be alive but not placeable — suspected stale or on
	// flap probation — in which case it keeps settling the work it has
	// while the router quarantines it from new placements.
	Placeable() bool
}

// localShard wraps an in-process cluster and its observer.
type localShard struct {
	cl   *livecluster.Cluster
	o    *obs.Observer
	res  *metrics.RunResult
	err  error
	done chan struct{}
}

// start launches the cluster's run; failed receives the shard index on a
// run error so the router can abort its pump.
func (s *localShard) start(i int, failed chan<- int) {
	go func() {
		s.res, s.err = s.cl.Run()
		if s.err != nil {
			failed <- i
		}
		close(s.done)
	}()
}

func (s *localShard) SubmitBatch(ts []*task.Task) error { return s.cl.SubmitBatch(ts) }
func (s *localShard) Placeable() bool                   { return true }
func (s *localShard) LoadSummary() livecluster.Summary  { return s.cl.LoadSummary() }
func (s *localShard) SettledTasks() int64               { return s.o.Counts().Settled() }
func (s *localShard) Seal()                             { s.cl.Seal() }
func (s *localShard) Journal() ([]obs.Entry, int64)     { return s.o.Journal().Export() }
func (s *localShard) Wait() (*metrics.RunResult, error) {
	<-s.done
	return s.res, s.err
}

// Federation runs N live scheduler shards behind one router. Build with
// New, run once with Run; the metrics handler (http.go) can be attached
// any time after New.
type Federation struct {
	cfg Config
	tp  Topology

	obsShards []*obs.Observer
	faults    []*faultinject.Plan
	// journal records the router's own lifecycle spans (route, migrate,
	// route-reject); MergedEntries folds it into the shard journals with
	// the RouterShard tag.
	journal *obs.Journal

	reg         *obs.Registry
	routed      *obs.Counter
	migrated    *obs.Counter
	bounced     *obs.Counter
	rejected    *obs.Counter
	salvaged    *obs.Counter
	salvageLost *obs.Counter
	rejoinsC    *obs.Counter
	quarantines *obs.Counter
	routedBy    []*obs.Counter

	clock   *livecluster.Clock
	shards  []*livecluster.Cluster
	handles []shardHandle

	// mu serialises routing decisions (first placements and migrations)
	// so the core's Submitted tie-break and tried sets stay consistent; it
	// guards rt and everything below. Lock order: mu before any cluster
	// lock; clusters never call back into the router while holding their
	// own locks.
	mu sync.Mutex
	// rt is the routing core the simulation shares (core.go); Federation is
	// its live driver.
	rt routeCore
	// salvagedIDs marks tasks the router already re-placed off a dead
	// shard, so the two salvage paths (session-loss recovery and a failed
	// stray submit) can never both place the same task.
	salvagedIDs map[task.ID]bool
	rejoinsN    int
}

// New validates the configuration and builds the federation: per-shard
// observers, the router's own registry, and the split fault plans. The
// shard clusters themselves are created by Run, on a shared clock.
func New(cfg Config) (*Federation, error) {
	if err := cfg.Topology.validateFor(cfg.Workload); err != nil {
		return nil, err
	}
	switch cfg.Placement {
	case AffinityFirst, LeastCE, Hashed:
	default:
		return nil, fmt.Errorf("federation: unknown placement %v", cfg.Placement)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 20
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("federation: Scale %v must be positive", cfg.Scale)
	}
	if cfg.SettleTimeout <= 0 {
		cfg.SettleTimeout = 2 * time.Minute
	}
	if cfg.JournalCap <= 0 {
		cfg.JournalCap = obs.DefaultJournalCap
	}
	if cfg.JournalCap > obs.MaxJournalCap {
		return nil, fmt.Errorf("federation: JournalCap %d exceeds the bound of %d entries", cfg.JournalCap, obs.MaxJournalCap)
	}
	if cfg.BatchCap < 0 {
		return nil, fmt.Errorf("federation: BatchCap %d must be non-negative", cfg.BatchCap)
	}
	if n := len(cfg.ShardAddrs); n > 0 {
		if n != cfg.Topology.Shards {
			return nil, fmt.Errorf("federation: %d shard addresses for %d shards", n, cfg.Topology.Shards)
		}
		if cfg.Faults != nil && !cfg.Faults.Empty() {
			return nil, fmt.Errorf("federation: fault plans inject into in-process shards; with ShardAddrs kill the shard process instead")
		}
	} else if cfg.Rejoin {
		return nil, fmt.Errorf("federation: Rejoin needs ShardAddrs; an in-process shard has no process to restart")
	}
	faults, err := SplitFaults(cfg.Faults, cfg.Topology)
	if err != nil {
		return nil, err
	}
	f := &Federation{
		cfg:         cfg,
		tp:          cfg.Topology,
		faults:      faults,
		reg:         obs.NewRegistry(),
		salvagedIDs: make(map[task.ID]bool),
		journal:     obs.NewJournal(cfg.JournalCap),
	}
	f.rt.reset(f, cfg.Topology, cfg.Placement, cfg.Migrate, cfg.Workload.Cost.Remote, cfg.Workload.Tasks)
	f.routed = f.reg.Counter(MetricRouted)
	f.migrated = f.reg.Counter(MetricMigrated)
	f.bounced = f.reg.Counter(MetricBounced)
	f.rejected = f.reg.Counter(MetricRejected)
	f.salvaged = f.reg.Counter(MetricSalvaged)
	f.salvageLost = f.reg.Counter(MetricSalvageLost)
	f.rejoinsC = f.reg.Counter(MetricRejoins)
	f.quarantines = f.reg.Counter(MetricQuarantines)
	f.reg.Gauge(MetricShards).Set(int64(cfg.Topology.Shards))
	f.routedBy = make([]*obs.Counter, cfg.Topology.Shards)
	f.obsShards = make([]*obs.Observer, cfg.Topology.Shards)
	for i := range f.routedBy {
		f.routedBy[i] = f.reg.Counter(fmt.Sprintf(MetricRoutedShardPattern, i))
		f.obsShards[i] = obs.New(cfg.JournalCap)
	}
	return f, nil
}

// Topology returns the federation's worker partition.
func (f *Federation) Topology() Topology { return f.tp }

// Registry returns the router's own metric registry.
func (f *Federation) Registry() *obs.Registry { return f.reg }

// ShardObserver returns shard i's observer (its registry carries the
// standard rtsads_* families, exposed with a shard label by the handler).
func (f *Federation) ShardObserver(i int) *obs.Observer { return f.obsShards[i] }

// Run executes the workload across the shards: it builds one handle per
// shard on a shared virtual clock (in-process clusters, or wire sessions
// to remote shard processes when ShardAddrs is set), replays the global
// arrival sequence through the router in batched routing decisions, waits
// until every task has reached a terminal bucket, then seals the shards
// and collects their results.
func (f *Federation) Run() (*Result, error) {
	clock, err := livecluster.NewClock(f.cfg.Scale)
	if err != nil {
		return nil, err
	}
	f.clock = clock

	handles := make([]shardHandle, f.tp.Shards)
	failed := make(chan int, f.tp.Shards)
	if len(f.cfg.ShardAddrs) > 0 {
		for i, addr := range f.cfg.ShardAddrs {
			rs, err := f.dialShard(i, addr)
			if err != nil {
				for _, h := range handles {
					if h != nil {
						h.Seal()
					}
				}
				return nil, fmt.Errorf("federation: shard %d at %s: %w", i, addr, err)
			}
			handles[i] = rs
		}
	} else {
		f.shards = make([]*livecluster.Cluster, f.tp.Shards)
		for i := range handles {
			cl, err := livecluster.New(f.shardConfig(i, clock))
			if err != nil {
				return nil, fmt.Errorf("federation: shard %d: %w", i, err)
			}
			f.shards[i] = cl
		}
		for i, cl := range f.shards {
			ls := &localShard{cl: cl, o: f.obsShards[i], done: make(chan struct{})}
			ls.start(i, failed)
			handles[i] = ls
		}
	}
	f.mu.Lock()
	f.handles = handles
	f.mu.Unlock()

	// Pump the global arrival sequence through the router in real
	// (scaled) time, routing every batch of due arrivals against one view
	// snapshot.
	pumpErr := f.pump(failed)

	// Wait until every distinct task has reached a non-bounce terminal
	// bucket somewhere — hit, purged, scheduled-missed, lost or shed. A
	// task mid-migration is in no terminal bucket, so sealing here cannot
	// race a bounce. (A dead remote shard counts everything routed to it
	// as settled: lost with the shard.)
	if pumpErr == nil {
		deadline := time.Now().Add(f.cfg.SettleTimeout)
		total := int64(len(f.cfg.Workload.Tasks))
	settle:
		for f.settled() < total {
			select {
			case i := <-failed:
				pumpErr = fmt.Errorf("federation: shard %d failed mid-run", i)
				break settle
			default:
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	for _, h := range f.handles {
		h.Seal()
	}
	results := make([]*metrics.RunResult, f.tp.Shards)
	var errs []error
	for i, h := range f.handles {
		res, err := h.Wait()
		results[i] = res
		if err != nil {
			errs = append(errs, fmt.Errorf("federation: shard %d: %w", i, err))
		}
	}
	if pumpErr != nil {
		return nil, pumpErr
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}

	f.mu.Lock()
	res := f.rt.result()
	res.Rejoins = f.rejoinsN
	f.mu.Unlock()
	res.Shards = results
	return res, nil
}

// shardConfig is in-process shard i's cluster configuration. A wire shard
// builds its own from the session hello (helloShardConfig); the two must
// agree on everything but the shard's identity, or one federation.Config
// behaves differently by transport.
func (f *Federation) shardConfig(i int, clock *livecluster.Clock) livecluster.Config {
	return livecluster.Config{
		Workload:  ShardWorkload(f.cfg.Workload, f.tp, i),
		Algorithm: f.cfg.Algorithm,
		Scale:     f.cfg.Scale,
		Clock:     clock,
		External:  true,
		OnReject: func(t *task.Task, reason admission.Reason, now simtime.Instant) bool {
			machine.CheckTask(t)
			return f.onReject(i, t.ID, reason, now)
		},
		Obs:        f.obsShards[i],
		Faults:     f.faults[i],
		Liveness:   f.cfg.Liveness,
		Admission:  f.cfg.Admission,
		SlackGuard: f.cfg.SlackGuard,
	}
}

// pump replays the workload's arrival sequence: it sleeps until the next
// arrival, gathers every task due at the router's clock (bounded by
// BatchCap per routing decision), and routes the batch against a single
// view snapshot — one locked placement pass and one SubmitBatch per
// destination shard, instead of a lock/snapshot/submit cycle per task.
func (f *Federation) pump(failed <-chan int) error {
	tasks := f.cfg.Workload.Tasks
	for i := 0; i < len(tasks); {
		select {
		case s := <-failed:
			return fmt.Errorf("federation: shard %d failed mid-run", s)
		default:
		}
		f.clock.SleepUntil(tasks[i].Arrival)
		now := f.clock.Now()
		j := i + 1
		for j < len(tasks) && !tasks[j].Arrival.After(now) {
			j++
		}
		for i < j {
			n := j - i
			if f.cfg.BatchCap > 0 && n > f.cfg.BatchCap {
				n = f.cfg.BatchCap
			}
			f.routeBatch(tasks[i:i+n], now)
			i += n
		}
	}
	return nil
}

// settled sums each shard's settled-task count — the number of distinct
// tasks whose fate is decided.
func (f *Federation) settled() int64 {
	var sum int64
	for _, h := range f.handles {
		sum += h.SettledTasks()
	}
	return sum
}

// routeBatch places a batch of due arrivals: one locked pass through the
// routing core (one view snapshot, one placement per task), then one grouped
// SubmitBatch per destination shard.
func (f *Federation) routeBatch(ts []*task.Task, now simtime.Instant) {
	f.mu.Lock()
	f.rt.place(ts, now)
	f.publishLocked()
	f.mu.Unlock()
	// Submit outside mu: a remote shard's write can block on the network,
	// and reject callbacks re-enter the router lock. Only the pump stages,
	// so the stage needs no lock. Submit cannot fail on a live shard here
	// (shards seal only after the pump and settle complete); a batch a dead
	// remote shard could not take is charged to that shard and then salvaged
	// like its outstanding tasks, so every task still reconciles — rescued
	// on a sibling or explicitly lost.
	for s, staged := range f.rt.stage {
		if len(staged) == 0 {
			continue
		}
		if err := f.handles[s].SubmitBatch(staged); err != nil {
			if rs, ok := f.handles[s].(*remoteShard); ok {
				rs.chargeLost(len(staged))
				f.salvageBatch(rs, staged, now)
			}
		}
		f.rt.stage[s] = staged[:0]
	}
}

// publishLocked mirrors the core's ledgers into the router's registry, so
// the exposition can never disagree with the Result. Caller holds f.mu.
func (f *Federation) publishLocked() {
	set := func(c *obs.Counter, n int) {
		if d := int64(n) - c.Value(); d != 0 {
			c.Add(d)
		}
	}
	set(f.routed, f.rt.res.Routed)
	set(f.migrated, f.rt.res.Migrated)
	set(f.bounced, f.rt.res.Bounced)
	set(f.rejected, f.rt.res.Rejected)
	set(f.salvaged, f.rt.res.Salvaged)
	set(f.salvageLost, f.rt.res.SalvageLost)
	for i, c := range f.routedBy {
		set(c, f.rt.perShard[i])
	}
}

// acceptedBounces returns how many of shard i's rejects the router
// re-placed on a sibling — exact where a dead shard's last counter
// snapshot may trail the truth.
func (f *Federation) acceptedBounces(i int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(f.rt.bounces[i])
}

// onReject is each shard's bounce callback: re-offer a rejected task to
// the best feasible sibling. Returning true transfers ownership (the task
// was submitted to the sibling); false hands it back to the rejecting
// shard to shed or lose locally. Tasks shed for shutdown never get here.
// It is keyed by task ID — the router re-places its own global copy — so
// remote shards can bounce with a 4-byte identifier.
func (f *Federation) onReject(from int, id task.ID, reason admission.Reason, now simtime.Instant) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	ok := f.rt.bounce(from, id, string(reason), now)
	f.publishLocked()
	return ok
}

// load reads shard i's latest load summary — up to one phase stale — and
// its placement eligibility. Caller holds f.mu.
func (f *Federation) load(i int, _ simtime.Instant) (livecluster.Summary, bool) {
	return f.handles[i].LoadSummary(), f.handles[i].Placeable()
}

// handoff submits a re-placed task while the caller holds f.mu.
func (f *Federation) handoff(s int, batch []*task.Task, _ simtime.Instant) error {
	return f.handles[s].SubmitBatch(batch)
}

// notePlaced, noteMigrated and noteDeclined record the router's own lifecycle spans in
// its journal.
func (f *Federation) notePlaced(t *task.Task, s int, now simtime.Instant) {
	f.note(obs.Entry{Type: "route", Task: int(t.ID), Worker: s, Detail: f.rt.routeDetail}, now)
}

func (f *Federation) noteMigrated(m migration, now simtime.Instant) {
	if rs, ok := f.handles[m.from].(*remoteShard); ok {
		// The sibling owns the task now; the dead-shard salvage ledger
		// must not offer it again.
		rs.forget(m.task.ID)
	}
	f.note(obs.Entry{Type: "migrate", Task: int(m.task.ID), Worker: m.to, Detail: m.detail(now)}, now)
}

func (f *Federation) noteDeclined(id task.ID, _ int, reason string, now simtime.Instant) {
	f.note(obs.Entry{Type: "route-reject", Task: int(id), Worker: -1, Detail: reason}, now)
}

// recoverShard is the session-loss entry point: it walks the dead
// session's outstanding ledger (submitted minus verdicted, per the last
// applied Progress frame) in task order, salvages every task a sibling can
// still finish by its deadline, then folds the session's books so the
// shard can rejoin with a clean per-session ledger. Runs on the recovery
// goroutine; takes f.mu.
func (f *Federation) recoverShard(s *remoteShard) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.handles != nil {
		ids := s.outstandingIDs()
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			// A concurrent failed-submit salvage (salvageBatch) or an
			// in-flight verdict may have settled the ID between the
			// snapshot and here; skip anything no longer ours to place.
			if !s.stillOutstanding(id) || f.salvagedIDs[id] {
				continue
			}
			if f.rt.salvage(s.id, id, "shard-death", now) {
				f.salvagedIDs[id] = true
			}
		}
		f.publishLocked()
	}
	s.fold(int64(f.rt.bounces[s.id]))
}

// salvageBatch handles a first placement that failed because the shard
// died mid-submit: the batch never reached the shard, so each task is
// salvaged like an outstanding task and the stray charge is folded
// straight into the shard's carried books (these tasks post-date the
// death-time fold).
func (f *Federation) salvageBatch(rs *remoteShard, ts []*task.Task, now simtime.Instant) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range ts {
		if f.salvagedIDs[t.ID] {
			continue
		}
		ok := f.rt.salvage(rs.id, t.ID, "submit-failed", now)
		if ok {
			f.salvagedIDs[t.ID] = true
		}
		rs.foldStray(ok)
	}
	f.publishLocked()
}

// noteRejoin records a completed rejoin handshake.
func (f *Federation) noteRejoin(shard int) {
	f.rejoinsC.Inc()
	f.mu.Lock()
	f.rejoinsN++
	f.mu.Unlock()
	f.note(obs.Entry{Type: "rejoin", Task: -1, Worker: shard}, f.clock.Now())
}

// noteQuarantine counts a placeable→quarantined edge. Called with f.mu
// held (from the placement snapshot), so it must only touch the counter.
func (f *Federation) noteQuarantine() {
	f.quarantines.Inc()
}

// note stamps and records one router-journal entry.
func (f *Federation) note(e obs.Entry, at simtime.Instant) {
	e.Wall = time.Now()
	e.Virtual = at
	f.journal.Record(e)
}

// MergedEntries merges the router journal and every shard journal into one
// record-ordered stream on the shared clock, each entry tagged with its
// source (obs.RouterShard for the router). The second return is the summed
// eviction count, so callers can tell a complete lifecycle view from a
// truncated one.
func (f *Federation) MergedEntries() ([]obs.Entry, int64) {
	sources := make(map[int][]obs.Entry, f.tp.Shards+1)
	entries, evicted := f.journal.Export()
	sources[obs.RouterShard] = entries
	for i := 0; i < f.tp.Shards; i++ {
		var se []obs.Entry
		var sev int64
		if h := f.handle(i); h != nil {
			se, sev = h.Journal()
		} else {
			se, sev = f.obsShards[i].Journal().Export()
		}
		sources[i] = se
		evicted += sev
	}
	return obs.MergeEntries(sources), evicted
}

// ShardCounters returns shard i's latest counts: its registry's in process
// (or before Run), a remote shard's live session's last Progress frame's.
func (f *Federation) ShardCounters(i int) metrics.Counts {
	if rs, ok := f.handle(i).(*remoteShard); ok {
		return rs.Counters()
	}
	return f.obsShards[i].Counts()
}

// handle returns shard i's handle, or nil before Run has built them.
func (f *Federation) handle(i int) shardHandle {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.handles == nil {
		return nil
	}
	return f.handles[i]
}
