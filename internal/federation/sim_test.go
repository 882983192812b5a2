package federation

import (
	"reflect"
	"testing"
	"time"

	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/workload"
)

// TestKeptPlannerMatchesFreshPlanner: a pooled simulation keeps its shards'
// planners from run to run while the algorithm, the worker count per shard
// and the costs match. For every registered policy, a run after another
// run — on a different workload, over a different topology with the same
// or a different worker count per shard — gives exactly what the same run
// gives on a fresh simulation: the same results, search counters and
// journals, wall-clock stamps aside.
func TestKeptPlannerMatchesFreshPlanner(t *testing.T) {
	// Each workload has its own remote cost, so a kept planner that priced
	// communication with an earlier run's workload would schedule apart.
	gen := func(workers int, seed uint64) *workload.Workload {
		p := workload.DefaultParams(workers)
		p.NumTransactions = 400
		p.Seed = seed
		p.RemoteCost *= time.Duration(seed)
		w, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	first := SimConfig{Workload: gen(8, 1), Topology: Topology{Shards: 4, WorkersPerShard: 2}, Migrate: true}
	seconds := []SimConfig{
		{Workload: gen(6, 2), Topology: Topology{Shards: 3, WorkersPerShard: 2}, Migrate: true},
		{Workload: gen(9, 3), Topology: Topology{Shards: 3, WorkersPerShard: 3}, Migrate: true},
	}
	run := func(f *simFed, cfg SimConfig, algo policy.Algorithm) (*Result, [][]obs.Entry) {
		t.Helper()
		cfg.Algorithm, cfg.VertexCost = algo, time.Microsecond
		cfg.Obs = make([]*obs.Observer, cfg.Topology.Shards)
		for i := range cfg.Obs {
			cfg.Obs[i] = obs.New(1 << 14)
		}
		if err := f.reset(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := f.run()
		if err != nil {
			t.Fatal(err)
		}
		journals := make([][]obs.Entry, len(cfg.Obs))
		for i, o := range cfg.Obs {
			if o.Journal().Evicted() != 0 {
				t.Fatalf("%s: shard %d's journal evicted entries", algo, i)
			}
			journals[i] = o.Journal().Snapshot()
			for j := range journals[i] {
				journals[i][j].Wall = time.Time{} // the one field virtual time does not set
			}
		}
		return res, journals
	}
	for _, name := range policy.Default().Names() {
		algo := policy.Algorithm(name)
		for _, second := range seconds {
			kept := new(simFed)
			run(kept, first, algo)
			planners := make([]any, len(kept.shards))
			for i, sh := range kept.shards {
				planners[i] = sh.planner
			}
			got, gotJournals := run(kept, second, algo)
			want, wantJournals := run(new(simFed), second, algo)
			if same := kept.shards[0].planner == planners[0]; same != (second.Topology.WorkersPerShard == first.Topology.WorkersPerShard) {
				t.Fatalf("%s over %+v: shard 0 kept its planner = %v", name, second.Topology, same)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %+v: a kept planner's run differs from a fresh one's:\n%+v\n%+v",
					name, second.Topology, got.Combined(), want.Combined())
			}
			if !reflect.DeepEqual(gotJournals, wantJournals) {
				t.Fatalf("%s over %+v: a kept planner's journals differ from a fresh one's", name, second.Topology)
			}
		}
	}
}
