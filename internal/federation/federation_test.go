package federation

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/faultinject"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// sectionWorkload generates the paper's §5.1 configuration over the given
// worker count.
func sectionWorkload(t *testing.T, workers int) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.DefaultParams(workers))
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	return w
}

// checkRegistryMirror asserts that a shard's registry counters equal the
// corresponding RunResult fields — the reconciliation the federation-wide
// invariants rest on.
func checkRegistryMirror(t *testing.T, shard int, o *obs.Observer, res *metrics.RunResult) {
	t.Helper()
	snap := o.Registry().Snapshot()
	for name, want := range machine.Mirror(res) {
		if got := snap[name]; got != int64(want) {
			t.Errorf("shard %d: registry %s = %d, result says %d", shard, name, got, want)
		}
	}
}

// TestSimulateFourShardAcceptance is the tentpole acceptance test: a
// 4-shard federation under the paper's §5.1 workload reports zero
// scheduled-deadline misses, the federation counters reconcile exactly
// with the per-shard registry totals, and the mean per-phase scheduling
// latency per shard is lower than the single-shard run at equal total
// worker count.
func TestSimulateFourShardAcceptance(t *testing.T) {
	const totalWorkers = 8
	w := sectionWorkload(t, totalWorkers)

	run := func(shards int) (*Result, []*obs.Observer) {
		t.Helper()
		tp, err := SplitWorkers(totalWorkers, shards)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		observers := make([]*obs.Observer, shards)
		for i := range observers {
			observers[i] = obs.New(64)
		}
		res, err := Simulate(SimConfig{
			Workload:  w,
			Topology:  tp,
			Placement: AffinityFirst,
			Migrate:   true,
			Obs:       observers,
		})
		if err != nil {
			t.Fatalf("simulate %d shards: %v", shards, err)
		}
		return res, observers
	}

	single, _ := run(1)
	fed, observers := run(4)

	if fed.Routed != len(w.Tasks) {
		t.Fatalf("routed %d tasks, workload has %d", fed.Routed, len(w.Tasks))
	}
	comb := fed.Combined()
	if comb.ScheduledMissed != 0 {
		t.Errorf("federation reported %d scheduled-deadline misses; §4.3 guarantees zero", comb.ScheduledMissed)
	}
	if err := fed.Reconcile(); err != nil {
		t.Errorf("reconcile: %v", err)
	}
	if comb.Hits == 0 {
		t.Error("no task met its deadline; the federation scheduled nothing useful")
	}
	for i, s := range fed.Shards {
		checkRegistryMirror(t, i, observers[i], s)
	}

	// Mean per-phase scheduling latency: each shard searches a quarter of
	// the batch over a quarter of the workers, so its phases must be
	// cheaper than the single scheduler's. Measured as generated vertices ×
	// VertexCost per phase — the uncapped virtual search time; the reported
	// SchedulingTime is quantum-truncated, which would hide how much search
	// the big batch actually demands.
	meanPhase := func(r *Result) time.Duration {
		vertices := 0
		phases := 0
		for _, s := range r.Shards {
			vertices += s.VerticesGenerated
			phases += s.Phases
		}
		if phases == 0 {
			t.Fatal("no phases ran")
		}
		return time.Duration(vertices) * time.Microsecond / time.Duration(phases)
	}
	sp, fp := meanPhase(single), meanPhase(fed)
	if fp >= sp {
		t.Errorf("mean per-phase scheduling latency did not improve: 4 shards %v >= 1 shard %v", fp, sp)
	}
	t.Logf("mean phase latency: 1 shard %v, 4 shards %v; fed hits=%d/%d migrated=%d",
		sp, fp, comb.Hits, comb.Total, fed.Migrated)
}

// TestSimulateDeterministic re-runs the same configuration and demands
// bit-identical results.
func TestSimulateDeterministic(t *testing.T) {
	w := sectionWorkload(t, 8)
	tp := Topology{Shards: 4, WorkersPerShard: 2}
	run := func() *Result {
		res, err := Simulate(SimConfig{
			Workload:  w,
			Topology:  tp,
			Placement: AffinityFirst,
			Migrate:   true,
			Admission: admission.Config{Policy: admission.Reject, QueueCap: 64, RejectHopeless: true},
		})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical simulations diverged:\n%+v\n%+v", a.Combined(), b.Combined())
	}
}

// TestSimulateMigration forces admission rejections with a tight queue cap
// and checks the migration books: every bounce is either migrated or
// rejected, migrated tasks reappear in sibling totals, and the federation
// still settles every distinct task exactly once.
func TestSimulateMigration(t *testing.T) {
	w := sectionWorkload(t, 8)
	tp := Topology{Shards: 4, WorkersPerShard: 2}
	res, err := Simulate(SimConfig{
		Workload:  w,
		Topology:  tp,
		Placement: LeastCE,
		Migrate:   true,
		Admission: admission.Config{Policy: admission.Reject, QueueCap: 40},
	})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if res.Bounced == 0 {
		t.Fatal("queue cap 40 over a bursty 1000-task arrival produced no bounces")
	}
	if res.Migrated == 0 {
		t.Error("no bounce migrated despite idle siblings")
	}
	if res.Combined().ScheduledMissed != 0 {
		t.Errorf("migration broke the deadline guarantee: %d scheduled misses", res.Combined().ScheduledMissed)
	}
	// Without migration the same configuration must shed strictly more.
	noMig, err := Simulate(SimConfig{
		Workload:  w,
		Topology:  tp,
		Placement: LeastCE,
		Migrate:   false,
		Admission: admission.Config{Policy: admission.Reject, QueueCap: 40},
	})
	if err != nil {
		t.Fatalf("simulate without migration: %v", err)
	}
	if err := noMig.Reconcile(); err != nil {
		t.Fatalf("reconcile without migration: %v", err)
	}
	if res.Combined().Shed >= noMig.Combined().Shed {
		t.Errorf("migration did not reduce shedding: %d with, %d without", res.Combined().Shed, noMig.Combined().Shed)
	}
}

func TestPlacementPick(t *testing.T) {
	mk := func(alive, overlap, submitted int, rqs time.Duration) ShardView {
		return ShardView{Alive: alive, Overlap: overlap, Submitted: submitted, RQs: rqs}
	}
	tt := &task.Task{ID: 7, Proc: time.Millisecond, Deadline: simtime.Instant(time.Hour)}
	cases := []struct {
		name   string
		policy Placement
		views  []ShardView
		want   int
	}{
		{"affinity wins", AffinityFirst, []ShardView{mk(2, 0, 0, 0), mk(2, 2, 0, time.Second)}, 1},
		{"affinity tie breaks on CE", AffinityFirst, []ShardView{mk(2, 1, 0, time.Second), mk(2, 1, 0, 0)}, 1},
		{"affinity skips dead", AffinityFirst, []ShardView{mk(0, 3, 0, 0), mk(2, 0, 0, 0)}, 1},
		{"least-ce ignores overlap", LeastCE, []ShardView{mk(2, 3, 0, time.Second), mk(2, 0, 0, 0)}, 1},
		{"least-ce tie breaks on submitted", LeastCE, []ShardView{mk(2, 0, 5, 0), mk(2, 0, 1, 0)}, 1},
		{"full tie keeps lowest index", LeastCE, []ShardView{mk(2, 0, 0, 0), mk(2, 0, 0, 0)}, 0},
		{"hashed uses id mod shards", Hashed, []ShardView{mk(2, 0, 0, 0), mk(2, 0, 0, 0), mk(2, 0, 0, 0)}, 1},
		{"hashed walks past dead", Hashed, []ShardView{mk(2, 0, 0, 0), mk(0, 0, 0, 0), mk(2, 0, 0, 0)}, 2},
		{"all dead", AffinityFirst, []ShardView{mk(0, 0, 0, 0), mk(0, 0, 0, 0)}, -1},
	}
	for _, c := range cases {
		if got := c.policy.Pick(tt, c.views, nil); got != c.want {
			t.Errorf("%s: picked %d, want %d", c.name, got, c.want)
		}
	}
}

func TestShardViewFeasible(t *testing.T) {
	now := simtime.Instant(0)
	tt := &task.Task{ID: 1, Proc: 4 * time.Millisecond, Deadline: simtime.Instant(10 * time.Millisecond)}
	cases := []struct {
		name string
		v    ShardView
		want bool
	}{
		{"idle local", ShardView{Alive: 2}, true},
		{"queued within slack", ShardView{Alive: 2, RQs: 5 * time.Millisecond}, true},
		{"queued past deadline", ShardView{Alive: 2, RQs: 7 * time.Millisecond}, false},
		{"remote cost tips it", ShardView{Alive: 2, RQs: 5 * time.Millisecond, Comm: 2 * time.Millisecond}, false},
		{"dead shard", ShardView{Alive: 0}, false},
		{"sealed shard", ShardView{Alive: 2, Sealed: true}, false},
	}
	for _, c := range cases {
		if got := c.v.Feasible(tt, now); got != c.want {
			t.Errorf("%s: feasible = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSplitWorkers(t *testing.T) {
	if tp, err := SplitWorkers(8, 4); err != nil || tp.WorkersPerShard != 2 {
		t.Errorf("SplitWorkers(8,4) = %+v, %v", tp, err)
	}
	if _, err := SplitWorkers(7, 2); err == nil {
		t.Error("SplitWorkers(7,2) accepted an uneven split")
	}
	if _, err := SplitWorkers(4, 0); err == nil {
		t.Error("SplitWorkers(4,0) accepted zero shards")
	}
}

func TestSplitFaults(t *testing.T) {
	tp := Topology{Shards: 2, WorkersPerShard: 2}
	plan := &faultinject.Plan{
		Kills: []faultinject.Kill{{Worker: 3, At: 5}},
		Drops: []faultinject.Drop{{Worker: 0, Count: 2}},
	}
	split, err := SplitFaults(plan, tp)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if split[0] == nil || len(split[0].Drops) != 1 || split[0].Drops[0].Worker != 0 {
		t.Errorf("shard 0 plan wrong: %+v", split[0])
	}
	if split[1] == nil || len(split[1].Kills) != 1 || split[1].Kills[0].Worker != 1 {
		t.Errorf("shard 1 plan: kill of global worker 3 should be local worker 1: %+v", split[1])
	}
	if _, err := SplitFaults(&faultinject.Plan{Kills: []faultinject.Kill{{Worker: faultinject.RandWorker}}}, tp); err == nil {
		t.Error("random-victim kill accepted across 2 shards")
	}
	if _, err := SplitFaults(&faultinject.Plan{Kills: []faultinject.Kill{{Worker: 4}}}, tp); err == nil {
		t.Error("out-of-range victim accepted")
	}
	if got, _ := SplitFaults(nil, tp); got[0] != nil || got[1] != nil {
		t.Error("nil plan should split into nil shard plans")
	}
}

func TestLocalizeAndShardWorkload(t *testing.T) {
	w := sectionWorkload(t, 8)
	tp := Topology{Shards: 4, WorkersPerShard: 2}
	for shard := 0; shard < tp.Shards; shard++ {
		sw := ShardWorkload(w, tp, shard)
		if sw.Params.Workers != 2 {
			t.Fatalf("shard workload has %d workers", sw.Params.Workers)
		}
		if len(sw.Tasks) != 0 {
			t.Fatalf("shard workload carries %d tasks; a shard's tasks are the router's submissions", len(sw.Tasks))
		}
		base := shard * tp.WorkersPerShard
		for sub, global := range w.Placement {
			local := sw.Placement[sub]
			for k := 0; k < tp.WorkersPerShard; k++ {
				if global.Has(base+k) != local.Has(k) {
					t.Fatalf("shard %d sub %d: global worker %d vs local %d disagree", shard, sub, base+k, k)
				}
			}
		}
	}
	tt := w.Tasks[0]
	lt := new(task.Task)
	LocalizeInto(lt, tt, tp, 1)
	if lt.ID != tt.ID || lt.Deadline != tt.Deadline || lt.Proc != tt.Proc {
		t.Error("localize changed task identity")
	}
	for k := 0; k < tp.WorkersPerShard; k++ {
		if lt.Affinity.Has(k) != tt.Affinity.Has(tp.WorkersPerShard+k) {
			t.Errorf("localized affinity bit %d disagrees with global worker %d", k, tp.WorkersPerShard+k)
		}
	}
}

// TestFederationLiveTwoShards runs a small live 2-shard federation with a
// tight admission gate so migrations actually happen, and checks the
// federation-wide accounting plus the per-shard registry mirror.
func TestFederationLiveTwoShards(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 48
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      200,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if res.Routed != len(w.Tasks) {
		t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
	}
	for i, s := range res.Shards {
		checkRegistryMirror(t, i, f.ShardObserver(i), s)
	}
	// The router's own registry must mirror the Result exactly.
	snap := f.Registry().Snapshot()
	for name, want := range map[string]int{
		MetricRouted:   res.Routed,
		MetricMigrated: res.Migrated,
		MetricBounced:  res.Bounced,
		MetricRejected: res.Rejected,
	} {
		if got := snap[name]; got != int64(want) {
			t.Errorf("federation registry %s = %d, result says %d", name, got, want)
		}
	}
	for i, n := range res.PerShardRouted {
		if got := snap[fmt.Sprintf(MetricRoutedShardPattern, i)]; got != int64(n) {
			t.Errorf("per-shard routed counter %d = %d, result says %d", i, got, n)
		}
	}
	t.Logf("live 2-shard: %s", res.Combined())
}

// TestSimulateShardEvents kills shard 1 partway through the arrival stream
// and rejoins it later, all on the virtual clock: the run must stay
// bit-reproducible, every identity in Reconcile must hold across the
// kill→salvage→rejoin cycle, the rejoin must be counted, and the death must
// leave salvage evidence — tasks re-placed on siblings or explicitly lost.
func TestSimulateShardEvents(t *testing.T) {
	// Bursty arrivals all land at virtual time zero, which would collapse
	// every kill instant onto the first routing decision; Poisson arrivals
	// spread the stream so the kill genuinely interrupts a part-routed run.
	p := workload.DefaultParams(8)
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 20 * time.Microsecond
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	arrivals := make([]simtime.Instant, len(w.Tasks))
	for i, tk := range w.Tasks {
		arrivals[i] = tk.Arrival
	}
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a].Before(arrivals[b]) })
	killAt := arrivals[len(arrivals)/4]
	rejoinAt := arrivals[len(arrivals)/2]
	cfg := SimConfig{
		Workload:  w,
		Topology:  Topology{Shards: 4, WorkersPerShard: 2},
		Placement: AffinityFirst,
		Migrate:   true,
		Admission: admission.Config{Policy: admission.Reject, QueueCap: 64},
		ShardEvents: []ShardEvent{
			{At: killAt, Shard: 1, Kind: ShardKill},
			{At: rejoinAt, Shard: 1, Kind: ShardRejoin},
		},
	}
	run := func() *Result {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		return res
	}
	res, again := run(), run()
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("shard events broke determinism:\n%+v\n%+v", res.Combined(), again.Combined())
	}
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile across kill→salvage→rejoin: %v", err)
	}
	if res.Rejoins != 1 {
		t.Errorf("rejoins = %d, want exactly 1", res.Rejoins)
	}
	if res.Salvaged+res.SalvageLost == 0 {
		t.Error("the kill left no salvage evidence: nothing migrated off or lost with the dead shard")
	}
	if res.Salvaged > 0 && res.Migrated < res.Salvaged {
		t.Errorf("salvaged %d exceeds migrated %d", res.Salvaged, res.Migrated)
	}

	// The rejoined shard must be placeable again: a task arriving after the
	// rejoin can land on shard 1, so its books keep growing past the fold.
	dead, err := Simulate(SimConfig{
		Workload:  w,
		Topology:  cfg.Topology,
		Placement: cfg.Placement,
		Migrate:   cfg.Migrate,
		Admission: cfg.Admission,
		ShardEvents: []ShardEvent{
			{At: killAt, Shard: 1, Kind: ShardKill},
		},
	})
	if err != nil {
		t.Fatalf("simulate without rejoin: %v", err)
	}
	if err := dead.Reconcile(); err != nil {
		t.Fatalf("reconcile without rejoin: %v", err)
	}
	if dead.Rejoins != 0 {
		t.Errorf("rejoins = %d without a rejoin event", dead.Rejoins)
	}
	if res.Shards[1].Total <= dead.Shards[1].Total {
		t.Errorf("rejoin placed no new work on shard 1: total %d with rejoin, %d without",
			res.Shards[1].Total, dead.Shards[1].Total)
	}

	// Event validation: out-of-range shards and unknown kinds are rejected.
	if _, err := Simulate(SimConfig{
		Workload: w, Topology: cfg.Topology,
		ShardEvents: []ShardEvent{{At: killAt, Shard: 9, Kind: ShardKill}},
	}); err == nil {
		t.Error("Simulate accepted an event for a shard outside the topology")
	}
	if _, err := Simulate(SimConfig{
		Workload: w, Topology: cfg.Topology,
		ShardEvents: []ShardEvent{{At: killAt, Shard: 1, Kind: "explode"}},
	}); err == nil {
		t.Error("Simulate accepted an unknown event kind")
	}
	t.Logf("sim shard events: rejoins=%d salvaged=%d salvage-lost=%d shard1 total=%d (dead-run total=%d)",
		res.Rejoins, res.Salvaged, res.SalvageLost, res.Shards[1].Total, dead.Shards[1].Total)
}
