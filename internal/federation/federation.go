// Package federation shards a single RT-SADS cluster into N self-contained
// scheduler domains behind one front-end router — the route past the
// paper's own scalability ceiling, where per-phase search cost grows with
// batch size × processor count (§5). Each shard runs its own planner,
// worker set, admission gate and metrics namespace over a fixed slice of
// the worker pool; the router owns global task admission and places every
// arriving task on one shard by a pluggable policy:
//
//   - affinity-first: the shard holding the most replicas of the task's
//     sub-database (everything else pays the paper's constant remote cost C)
//   - least-ce: the shard with the smallest cost estimate — its reported
//     Min_Load/queued-work summary, the router-level analogue of §4.2's
//     Min_Load term
//   - hashed: task ID modulo shard count, the affinity-blind baseline
//
// Migration keeps the end-to-end guarantee deadline-safe: when a shard's
// admission gate rejects a task (locally hopeless, queue full, or the
// shard has lost every worker), the shard hands the task back to the
// router instead of shedding it, and the router re-offers it to sibling
// shards after re-running the §4.3 feasibility test — t_c + RQs + se_lk ≤
// d_l — against the target shard's reported state. The test here is
// advisory (a summary can be one phase stale); the target shard's own
// admission gate and planner re-prove feasibility before anything
// executes, so a migrated task either provably meets its deadline on the
// new shard or is counted honestly.
//
// Two drivers share one routing core (core.go): Federation (router.go) runs
// live shards — real livecluster instances on one shared virtual clock — and
// Simulate (sim.go) runs the bit-for-bit reproducible analytic model the
// acceptance tests and benchmarks use.
package federation

import (
	"fmt"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/faultinject"
	"rtsads/internal/metrics"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// Federation-level metric names: the router's own counters, alongside the
// per-shard rtsads_* families that gain a shard label in the merged
// exposition.
const (
	// MetricRouted counts tasks the router placed on first arrival — one
	// per distinct task.
	MetricRouted = "rtsads_fed_routed_total"
	// MetricMigrated counts cross-shard migrations: rejected tasks the
	// router successfully re-offered to a sibling shard.
	MetricMigrated = "rtsads_fed_migrated_total"
	// MetricBounced counts reject callbacks received from shards (each
	// bounce is either migrated or rejected).
	MetricBounced = "rtsads_fed_bounced_total"
	// MetricRejected counts bounces with no feasible sibling; the
	// rejecting shard sheds (or loses) those locally.
	MetricRejected = "rtsads_fed_rejected_total"
	// MetricSalvaged counts tasks rescued off a dead shard: outstanding
	// (or mid-submit) work the router re-placed on a feasible sibling.
	// Every salvage is also a migration, so the bounce identities hold.
	MetricSalvaged = "rtsads_fed_salvaged_total"
	// MetricSalvageLost counts salvage attempts no sibling could serve by
	// the deadline; those tasks are charged lost to the dead shard.
	MetricSalvageLost = "rtsads_fed_salvage_lost_total"
	// MetricRejoins counts completed rejoin handshakes — a restarted shard
	// process re-admitted to placement.
	MetricRejoins = "rtsads_fed_rejoins_total"
	// MetricQuarantines counts placeable→quarantined edges: a shard pulled
	// from placement because its frames went stale (suspect) or it rejoined
	// on flap probation.
	MetricQuarantines = "rtsads_fed_quarantines_total"
	// MetricShards is the configured shard count.
	MetricShards = "rtsads_fed_shards"
	// MetricRoutedShardPattern is the per-shard first-route counter.
	MetricRoutedShardPattern = `rtsads_fed_routed_total{shard="%d"}`
)

// Placement selects how the router picks a shard for each task.
type Placement int

const (
	// AffinityFirst routes to the shard holding the most replicas of the
	// task's sub-database; ties break on the smaller cost estimate.
	AffinityFirst Placement = iota
	// LeastCE routes to the shard with the smallest cost estimate
	// regardless of affinity.
	LeastCE
	// Hashed routes by task ID modulo shard count, walking forward past
	// dead shards.
	Hashed
)

// String returns the policy's flag-friendly name.
func (p Placement) String() string {
	switch p {
	case AffinityFirst:
		return "affinity"
	case LeastCE:
		return "least-ce"
	case Hashed:
		return "hashed"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement maps a flag value back to a policy.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "affinity":
		return AffinityFirst, nil
	case "least-ce":
		return LeastCE, nil
	case "hashed":
		return Hashed, nil
	default:
		return 0, fmt.Errorf("federation: unknown placement %q (want affinity, least-ce or hashed)", s)
	}
}

// Topology partitions a worker pool into equal shards. Global worker k
// belongs to shard k/WorkersPerShard and is that shard's local worker
// k%WorkersPerShard.
type Topology struct {
	Shards          int
	WorkersPerShard int
}

// SplitWorkers builds the topology dividing total workers across shards,
// rejecting totals that do not divide evenly — a lopsided cluster would
// silently skew every per-shard comparison.
func SplitWorkers(total, shards int) (Topology, error) {
	if shards <= 0 {
		return Topology{}, fmt.Errorf("federation: shard count %d must be positive", shards)
	}
	if total <= 0 {
		return Topology{}, fmt.Errorf("federation: worker count %d must be positive", total)
	}
	if total%shards != 0 {
		return Topology{}, fmt.Errorf("federation: %d workers do not divide evenly into %d shards (use a worker count that is a multiple of the shard count)", total, shards)
	}
	return Topology{Shards: shards, WorkersPerShard: total / shards}, nil
}

// Validate reports whether the topology is usable.
func (tp Topology) Validate() error {
	if tp.Shards <= 0 {
		return fmt.Errorf("federation: Shards %d must be positive", tp.Shards)
	}
	if tp.WorkersPerShard <= 0 {
		return fmt.Errorf("federation: WorkersPerShard %d must be positive", tp.WorkersPerShard)
	}
	if tp.TotalWorkers() > affinity.MaxProcs {
		return fmt.Errorf("federation: %d total workers exceed the limit of %d", tp.TotalWorkers(), affinity.MaxProcs)
	}
	return nil
}

// validateFor checks the topology against the workload it must carry.
func (tp Topology) validateFor(w *workload.Workload) error {
	if w == nil {
		return fmt.Errorf("federation: Workload is required")
	}
	if err := tp.Validate(); err != nil {
		return err
	}
	if got, want := w.Params.Workers, tp.TotalWorkers(); got != want {
		return fmt.Errorf("federation: workload has %d workers but topology needs %d", got, want)
	}
	return nil
}

// TotalWorkers returns the pool size across all shards.
func (tp Topology) TotalWorkers() int { return tp.Shards * tp.WorkersPerShard }

// ShardOf returns the shard owning global worker k.
func (tp Topology) ShardOf(k int) int { return k / tp.WorkersPerShard }

// String renders the topology for startup banners.
func (tp Topology) String() string {
	return fmt.Sprintf("%d shard(s) × %d worker(s) (%d total)", tp.Shards, tp.WorkersPerShard, tp.TotalWorkers())
}

// Overlap counts the workers of the given shard that hold a replica the
// task has affinity to — the placement signal behind AffinityFirst, and
// the reason a shard's communication cost is zero rather than the remote
// constant C.
func (tp Topology) Overlap(t *task.Task, shard int) int {
	return t.Affinity.CountRange(shard*tp.WorkersPerShard, tp.WorkersPerShard)
}

// ShardView is one shard's state as the router sees it at a routing
// decision: the load summary projected onto one candidate task.
type ShardView struct {
	// Alive is the shard's surviving worker count; zero makes the shard
	// ineligible.
	Alive int
	// Sealed shards accept no further submissions.
	Sealed bool
	// Quarantined shards are alive but pulled from placement — frames gone
	// stale (suspect) or rejoined on flap probation. They keep settling the
	// work they hold; they just take no new work until the router clears
	// them, so a flapping shard cannot thrash migrations.
	Quarantined bool
	// RQs is the delay until the shard's earliest worker frees up —
	// max(0, MinFree − now), the §4.3 RQs term for the best-placed local
	// queue.
	RQs time.Duration
	// QueuedWork is the planned work queued across the shard's alive
	// workers.
	QueuedWork time.Duration
	// Overlap and Comm are task-specific: the replica overlap with this
	// shard and the communication cost the task pays there (zero when
	// Overlap > 0, the remote constant C otherwise).
	Overlap int
	Comm    time.Duration
	// Submitted counts tasks the router has already placed on this shard;
	// the final tie-break, so bursty arrivals spread instead of piling on
	// one shard.
	Submitted int
}

// Eligible reports whether the shard can accept a submission at all.
func (v ShardView) Eligible() bool { return v.Alive > 0 && !v.Sealed && !v.Quarantined }

// CE is the router-level cost estimate: the earliest-free delay plus the
// queued work amortised over the surviving workers — a per-shard Min_Load
// summary in the spirit of §4.2, cheap enough to evaluate per arrival.
func (v ShardView) CE() time.Duration {
	alive := v.Alive
	if alive < 1 {
		alive = 1
	}
	return v.RQs + v.QueuedWork/time.Duration(alive)
}

// Feasible re-runs the §4.3 test against this shard: t_c + RQs + se_lk ≤
// d_l, with se_lk = p_l + comm on the shard's earliest-free worker. It is
// deliberately the optimistic bound (the planner may place the task on a
// busier worker) so it never vetoes a migration the target could serve;
// the target's own gate and planner remain the hard guarantee.
func (v ShardView) Feasible(t *task.Task, now simtime.Instant) bool {
	if !v.Eligible() {
		return false
	}
	return task.Fits(now, v.RQs+t.Proc+v.Comm, 0, t.Deadline)
}

// Pick returns the best shard for t under the policy, or -1 when no shard
// passes. ok, when non-nil, further restricts the candidates (migration
// excludes already-tried shards and requires feasibility); ineligible
// shards are always skipped. Deterministic: ties always break the same
// way, ending on the lowest index.
func (p Placement) Pick(t *task.Task, views []ShardView, ok func(int) bool) int {
	use := func(i int) bool {
		return views[i].Eligible() && (ok == nil || ok(i))
	}
	if p == Hashed {
		n := len(views)
		start := int(t.ID) % n
		if start < 0 {
			start += n
		}
		for j := 0; j < n; j++ {
			if i := (start + j) % n; use(i) {
				return i
			}
		}
		return -1
	}
	best := -1
	for i := range views {
		if !use(i) {
			continue
		}
		if best < 0 || p.prefers(views[i], views[best]) {
			best = i
		}
	}
	return best
}

// prefers reports whether view a strictly beats view b under the policy.
// Equal views do not prefer, so Pick keeps the earlier (lower) index.
func (p Placement) prefers(a, b ShardView) bool {
	if p == AffinityFirst && a.Overlap != b.Overlap {
		return a.Overlap > b.Overlap
	}
	if a.CE() != b.CE() {
		return a.CE() < b.CE()
	}
	return a.Submitted < b.Submitted
}

// LocalizeInto copies a task into a shard's local frame, in caller-provided
// storage (the routing core's arena): the affinity set is remapped from
// global worker IDs to the shard's local worker IDs (empty when the shard
// holds no replica, so every local placement pays the remote cost C). ID,
// deadline and costs are untouched, so accounting and migration still speak
// about the same task.
func LocalizeInto(dst *task.Task, t *task.Task, tp Topology, shard int) {
	*dst = *t
	dst.Affinity = t.Affinity.Rebase(shard*tp.WorkersPerShard, tp.WorkersPerShard)
}

// ShardWorkload projects the global workload onto one shard: the worker
// count shrinks to the shard's slice and the replica placement is remapped
// to local worker IDs. The database, the transactions' stream positions and
// the cost model are shared; the task list is not carried, since a shard's
// tasks are the ones the router submits.
func ShardWorkload(w *workload.Workload, tp Topology, shard int) *workload.Workload {
	sw := *w
	sw.Params.Workers = tp.WorkersPerShard
	sw.Placement = make([]affinity.Set, len(w.Placement))
	base := shard * tp.WorkersPerShard
	for sub, set := range w.Placement {
		sw.Placement[sub] = set.Rebase(base, tp.WorkersPerShard)
	}
	sw.Tasks = nil
	return &sw
}

// SplitFaults partitions a global fault plan by shard, remapping each
// event's worker to the owning shard's local ID. Random-victim events
// (faultinject.RandWorker) are rejected for multi-shard topologies: the
// split must be deterministic, and "a random worker somewhere" has no
// well-defined shard. A nil or empty plan yields all-nil shard plans.
func SplitFaults(p *faultinject.Plan, tp Topology) ([]*faultinject.Plan, error) {
	out := make([]*faultinject.Plan, tp.Shards)
	if p.Empty() {
		return out, nil
	}
	get := func(worker int) (*faultinject.Plan, int, error) {
		if worker < 0 {
			if tp.Shards > 1 {
				return nil, 0, fmt.Errorf("federation: random-victim faults are ambiguous across %d shards; name an explicit worker", tp.Shards)
			}
			if out[0] == nil {
				out[0] = &faultinject.Plan{Seed: p.Seed}
			}
			return out[0], worker, nil
		}
		if worker >= tp.TotalWorkers() {
			return nil, 0, fmt.Errorf("federation: fault victim %d out of range (%d workers)", worker, tp.TotalWorkers())
		}
		s := tp.ShardOf(worker)
		if out[s] == nil {
			out[s] = &faultinject.Plan{Seed: p.Seed}
		}
		return out[s], worker % tp.WorkersPerShard, nil
	}
	for _, k := range p.Kills {
		sp, local, err := get(k.Worker)
		if err != nil {
			return nil, err
		}
		k.Worker = local
		sp.Kills = append(sp.Kills, k)
	}
	for _, d := range p.Drops {
		sp, local, err := get(d.Worker)
		if err != nil {
			return nil, err
		}
		d.Worker = local
		sp.Drops = append(sp.Drops, d)
	}
	for _, d := range p.Delays {
		sp, local, err := get(d.Worker)
		if err != nil {
			return nil, err
		}
		d.Worker = local
		sp.Delays = append(sp.Delays, d)
	}
	for _, s := range p.Stalls {
		sp, local, err := get(s.Worker)
		if err != nil {
			return nil, err
		}
		s.Worker = local
		sp.Stalls = append(sp.Stalls, s)
	}
	return out, nil
}

// Result is the outcome of one federated run: every shard's own
// RunResult plus the router's counters.
type Result struct {
	Topology  Topology
	Placement Placement

	// Shards holds each shard's run result, indexed by shard.
	Shards []*metrics.RunResult

	// Routed counts first-arrival placements — exactly one per distinct
	// task, so it equals the workload size.
	Routed int
	// Bounced counts reject callbacks the router received; every bounce is
	// either Migrated (re-placed on a feasible sibling) or Rejected (no
	// feasible sibling — the rejecting shard shed it locally).
	Bounced  int
	Migrated int
	Rejected int
	// Salvaged counts tasks rescued off dead shards (a subset of
	// Migrated); SalvageLost counts salvage attempts no sibling could
	// serve by the deadline (a subset of Rejected). Rejoins counts
	// completed rejoin handshakes.
	Salvaged    int
	SalvageLost int
	Rejoins     int
	// PerShardRouted breaks Routed down by first-placement shard.
	PerShardRouted []int
}

// Combined folds the per-shard results into one federation-wide RunResult.
// Total is the number of distinct tasks (migrated tasks appear in two
// shards' Totals but in exactly one shard's non-bounce terminal bucket).
func (r *Result) Combined() *metrics.RunResult {
	out := &metrics.RunResult{Workers: r.Topology.TotalWorkers()}
	algo := "federated"
	for _, s := range r.Shards {
		if s == nil {
			continue
		}
		if algo == "federated" && s.Algorithm != "" {
			algo = s.Algorithm
		}
		out.AddCounts(s.Counts())
		out.SchedulingTime += s.SchedulingTime
		if s.Makespan.After(out.Makespan) {
			out.Makespan = s.Makespan
		}
		out.WorkerBusy = append(out.WorkerBusy, s.WorkerBusy...)
		out.Response.Merge(&s.Response)
	}
	out.Total = r.Routed
	out.Algorithm = fmt.Sprintf("%s/fed×%d", algo, r.Topology.Shards)
	return out
}

// Reconcile checks the federation-wide accounting identities and returns
// the first violation:
//
//	Σ shard.Total                    == Routed + Migrated
//	Σ shard.Bounced                  == Migrated   (a shard counts a bounce
//	                                    only when the router re-placed it;
//	                                    failed bounces are shed locally)
//	Bounced                          == Migrated + Rejected
//	Σ shard.Settled()                == Routed   (each task settles once)
//	per shard: Balance()             (Settled() + Bounced == Total, and
//	                                    the shed reasons sum to Shed)
func (r *Result) Reconcile() error {
	sumTotal, sumBounced, sumSettled := 0, 0, 0
	for i, s := range r.Shards {
		if s == nil {
			return fmt.Errorf("federation: shard %d has no result", i)
		}
		if err := s.Balance(); err != nil {
			return fmt.Errorf("federation: shard %d: %w", i, err)
		}
		sumTotal += s.Total
		sumBounced += s.Bounced
		sumSettled += s.Settled()
	}
	if sumTotal != r.Routed+r.Migrated {
		return fmt.Errorf("federation: Σ shard totals %d != routed %d + migrated %d", sumTotal, r.Routed, r.Migrated)
	}
	if sumBounced != r.Migrated {
		return fmt.Errorf("federation: Σ shard bounced %d != federation migrated %d", sumBounced, r.Migrated)
	}
	if r.Bounced != r.Migrated+r.Rejected {
		return fmt.Errorf("federation: bounced %d != migrated %d + rejected %d", r.Bounced, r.Migrated, r.Rejected)
	}
	if sumSettled != r.Routed {
		return fmt.Errorf("federation: %d tasks settled != %d routed", sumSettled, r.Routed)
	}
	routed := 0
	for _, n := range r.PerShardRouted {
		routed += n
	}
	if routed != r.Routed {
		return fmt.Errorf("federation: Σ per-shard routed %d != routed %d", routed, r.Routed)
	}
	if r.Salvaged > r.Migrated {
		return fmt.Errorf("federation: salvaged %d exceeds migrated %d", r.Salvaged, r.Migrated)
	}
	if r.SalvageLost > r.Rejected {
		return fmt.Errorf("federation: salvage-lost %d exceeds rejected %d", r.SalvageLost, r.Rejected)
	}
	return nil
}
