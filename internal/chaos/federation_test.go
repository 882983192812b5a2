package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/db"
	"rtsads/internal/faultinject"
	"rtsads/internal/federation"
	"rtsads/internal/obs"
	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// FedScenario is the federation-tier chaos case: a live multi-shard
// federation in which one entire shard loses every worker mid-run — the
// blast radius a single-cluster kill can never produce. The invariants are
// the federation's accounting identities (Result.Reconcile), the
// zero-scheduled-miss guarantee, and the per-shard registry mirror, all of
// which must survive the router re-homing or honestly losing the dead
// shard's backlog.
type FedScenario struct {
	Seed     uint64
	Topology federation.Topology
	Tasks    int
	SF       float64
	Scale    float64

	Placement  federation.Placement
	Migrate    bool
	Admission  admission.Config
	SlackGuard time.Duration

	// KillShard names the shard whose workers are all killed (staggered
	// from KillAt in virtual time); -1 disables the kill.
	KillShard int
	KillAt    simtime.Instant
}

// NewFedScenario derives a federated kill-a-shard scenario from its seed.
// Every scenario kills one whole shard; migration, placement and the
// admission gate vary so both the re-home and the honest-loss paths get
// exercised.
func NewFedScenario(seed uint64) FedScenario {
	src := rng.New(seed)
	s := FedScenario{
		Seed: seed,
		Topology: federation.Topology{
			Shards:          2,
			WorkersPerShard: src.IntRange(2, 3),
		},
		Tasks:      src.IntRange(24, 48),
		SF:         3 + 3*src.Float64(),
		Scale:      200, // same wall-jitter argument as NewScenario
		Placement:  federation.Placement(src.Intn(3)),
		Migrate:    src.Bool(0.75),
		SlackGuard: 25 * time.Microsecond,
	}
	s.KillShard = src.Intn(s.Topology.Shards)
	s.KillAt = simtime.Instant(time.Duration(src.IntRange(200, 2000)) * time.Microsecond)
	if src.Bool(0.6) {
		s.Admission.QueueCap = src.IntRange(4, 12)
		s.Admission.Policy = admission.Policy(src.Intn(3))
	}
	if src.Bool(0.5) {
		s.Admission.RejectHopeless = true
	}
	return s
}

// FedReport is the outcome of one federated scenario.
type FedReport struct {
	Scenario   FedScenario
	Result     *federation.Result
	Violations []string
	// Journal is the federation-merged journal (router + shards) and
	// Evicted its summed truncation count; the span-completeness gate only
	// applies when nothing was evicted.
	Journal []obs.Entry
	Evicted int64
}

// Run executes the scenario through a live federation and checks the
// federation-tier invariants. A non-nil error means the scenario could not
// run at all; invariant failures land in Report.Violations.
func (s FedScenario) Run() (*FedReport, error) {
	p := workload.DefaultParams(s.Topology.TotalWorkers())
	p.Seed = s.Seed | 1
	p.NumTransactions = s.Tasks
	p.SF = s.SF
	p.DB = db.Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 10, KeyAttr: 0}
	w, err := workload.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("chaos: fed seed %d: %w", s.Seed, err)
	}
	var plan *faultinject.Plan
	if s.KillShard >= 0 {
		plan = &faultinject.Plan{}
		base := s.KillShard * s.Topology.WorkersPerShard
		for k := 0; k < s.Topology.WorkersPerShard; k++ {
			// Stagger the kills so detection and re-routing run while the
			// shard still half-exists before the whole domain goes dark.
			plan.Kills = append(plan.Kills, faultinject.Kill{
				Worker: base + k,
				At:     s.KillAt.Add(time.Duration(k) * 50 * time.Microsecond),
			})
		}
	}
	f, err := federation.New(federation.Config{
		Workload:   w,
		Topology:   s.Topology,
		Placement:  s.Placement,
		Migrate:    s.Migrate,
		Scale:      s.Scale,
		Admission:  s.Admission,
		SlackGuard: s.SlackGuard,
		Faults:     plan,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: fed seed %d: %w", s.Seed, err)
	}
	res, err := f.Run()
	if err != nil {
		return nil, fmt.Errorf("chaos: fed seed %d: %w", s.Seed, err)
	}
	rep := &FedReport{Scenario: s, Result: res}
	rep.Journal, rep.Evicted = f.MergedEntries()
	rep.Violations = s.check(res, f, rep.Journal, rep.Evicted)
	return rep, nil
}

// checkFederation evaluates the invariants every federated scenario
// shares: the federation's accounting identities, the router registry
// mirroring the federation counters, and — when the merged journal kept
// everything — the routing spans reconciling against the router's counters
// and span completeness. Routing spans live in the router's own journal,
// so they reconcile even when a killed shard's journal went down with it;
// every admitted task that shipped an admit span, wherever in the
// federation it ran, reaches exactly one terminal span.
func checkFederation(res *federation.Result, f *federation.Federation, journal []obs.Entry, evicted int64) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if err := res.Reconcile(); err != nil {
		add("%v", err)
	}
	snap := f.Registry().Snapshot()
	for name, want := range map[string]int{
		federation.MetricRouted:      res.Routed,
		federation.MetricMigrated:    res.Migrated,
		federation.MetricBounced:     res.Bounced,
		federation.MetricRejected:    res.Rejected,
		federation.MetricSalvaged:    res.Salvaged,
		federation.MetricSalvageLost: res.SalvageLost,
		federation.MetricRejoins:     res.Rejoins,
	} {
		if got := snap[name]; got != int64(want) {
			add("federation registry %s = %d, run result says %d", name, got, want)
		}
	}
	if evicted == 0 {
		routes, migrates := 0, 0
		for i := range journal {
			switch journal[i].Type {
			case "route":
				routes++
			case "migrate":
				migrates++
			}
		}
		if routes != res.Routed {
			add("merged journal records %d route spans, router says %d", routes, res.Routed)
		}
		if migrates != res.Migrated {
			add("merged journal records %d migrate spans, router says %d", migrates, res.Migrated)
		}
		for _, msg := range obs.SpanViolations(journal) {
			add("span completeness: %s", msg)
		}
	}
	return v
}

// check evaluates the federation invariants against one finished run: the
// shared ones, the zero-scheduled-miss guarantee, the kill's reach and the
// per-shard registry mirror.
func (s FedScenario) check(res *federation.Result, f *federation.Federation, journal []obs.Entry, evicted int64) []string {
	v := checkFederation(res, f, journal, evicted)
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	comb := res.Combined()
	if comb.ScheduledMissed != 0 {
		add("%d scheduled tasks missed their deadlines across the federation; want 0", comb.ScheduledMissed)
	}
	// The kill plan may land partially (or not at all) when a short run
	// settles every task before KillAt — that is fine per run; the smoke
	// test asserts whole-shard deaths happen across the seed batch. What a
	// single run must never show is more failures than the shard has
	// workers.
	if s.KillShard >= 0 {
		dead := res.Shards[s.KillShard]
		if dead.WorkerFailures > s.Topology.WorkersPerShard {
			add("killed shard %d reports %d worker failures, has only %d workers",
				s.KillShard, dead.WorkerFailures, s.Topology.WorkersPerShard)
		}
	}

	// Per-shard registries mirror each shard's result under its own
	// namespace.
	for i, sr := range res.Shards {
		snap := f.ShardObserver(i).Registry().Snapshot()
		for name, want := range obs.Mirror(sr) {
			if got := snap[name]; got != int64(want) {
				add("shard %d registry %s = %d, run result says %d", i, name, got, want)
			}
		}
	}
	return v
}

// runFedScenario runs one seeded federated scenario with a hang guard.
func runFedScenario(t *testing.T, seed uint64) *FedReport {
	t.Helper()
	type outcome struct {
		rep *FedReport
		err error
	}
	ch := make(chan outcome, 1)
	s := NewFedScenario(seed)
	go func() {
		rep, err := s.Run()
		ch <- outcome{rep, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.rep
	case <-time.After(60 * time.Second):
		t.Fatalf("fed seed %d: scenario hung", seed)
		return nil
	}
}

func TestFedScenarioDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := NewFedScenario(seed), NewFedScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: fed scenario generation not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if a.KillShard < 0 || a.KillShard >= a.Topology.Shards {
			t.Errorf("seed %d: kill targets shard %d of %d", seed, a.KillShard, a.Topology.Shards)
		}
	}
}

// TestFedChaosSmoke drives seeded kill-a-whole-shard scenarios through the
// live federation and checks the federation invariants on each. Across the
// batch the failure machinery must demonstrably fire: at least one shard
// must lose every worker, and the bounce path (migration or honest
// rejection) must have carried traffic.
func TestFedChaosSmoke(t *testing.T) {
	var wholeShardDeaths, bounced, migrated, lost int
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runFedScenario(t, seed)
			for _, v := range rep.Violations {
				t.Errorf("fed seed %d: %s", seed, v)
			}
			res := rep.Result
			if res.Routed != rep.Scenario.Tasks {
				t.Errorf("fed seed %d: routed %d tasks, scenario specifies %d",
					seed, res.Routed, rep.Scenario.Tasks)
			}
			dead := res.Shards[rep.Scenario.KillShard]
			if dead.WorkerFailures == rep.Scenario.Topology.WorkersPerShard {
				wholeShardDeaths++
			}
			bounced += res.Bounced
			migrated += res.Migrated
			lost += res.Combined().LostToFailure
		})
	}
	if wholeShardDeaths == 0 {
		t.Error("no scenario killed a whole shard; the shard-death path went unexercised")
	}
	if bounced == 0 {
		t.Error("no scenario bounced a single task; the federation reject path went unexercised")
	}
	t.Logf("aggregate over 12 seeds: whole-shard deaths=%d bounced=%d migrated=%d lost=%d",
		wholeShardDeaths, bounced, migrated, lost)
}
