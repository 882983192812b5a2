package federation

import (
	"reflect"
	"testing"
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

// TestSimulateOneShardIsMachineRun ties the simulation's shard host to the
// uniprocessor baseline: with one shard, no admission gate and no migration
// there is nothing left of the federation but the host step, so the shard's
// books must equal machine.Run's on the same task list, field by field. The
// Poisson case is the one that needs a sequential host — arrivals land
// inside running phases — and fails on any model that starts a phase at an
// arrival instant while the previous one is still consuming scheduling time.
func TestSimulateOneShardIsMachineRun(t *testing.T) {
	poisson := workload.DefaultParams(8)
	poisson.Arrival = workload.Poisson
	poisson.MeanInterArrival = 80 * time.Microsecond
	cases := []struct {
		name   string
		params workload.Params
	}{
		{"bursty", workload.DefaultParams(8)},
		{"poisson-80us", poisson},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := workload.Generate(c.params)
			if err != nil {
				t.Fatal(err)
			}
			planner, err := policy.Default().New(string(policy.RTSADS), policy.Options{Search: core.SearchConfig{
				Workers:    w.Params.Workers,
				Comm:       func(tk *task.Task, proc int) time.Duration { return w.Cost.Cost(tk.Affinity, proc) },
				VertexCost: time.Microsecond,
				Policy:     core.NewAdaptive(),
			}})
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(machine.Config{Workers: w.Params.Workers, Planner: planner})
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Run(w.Tasks)
			if err != nil {
				t.Fatal(err)
			}
			fed, err := Simulate(SimConfig{Workload: w, Topology: Topology{Shards: 1, WorkersPerShard: w.Params.Workers}})
			if err != nil {
				t.Fatal(err)
			}
			got := fed.Shards[0]
			if want.Phases < 2 || want.Hits == 0 {
				t.Fatalf("degenerate baseline: %s", want)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Total", got.Total, want.Total},
				{"Hits", got.Hits, want.Hits},
				{"Purged", got.Purged, want.Purged},
				{"ScheduledMissed", got.ScheduledMissed, want.ScheduledMissed},
				{"Phases", got.Phases, want.Phases},
				{"VerticesGenerated", got.VerticesGenerated, want.VerticesGenerated},
				{"Backtracks", got.Backtracks, want.Backtracks},
				{"DeadEnds", got.DeadEnds, want.DeadEnds},
				{"QuantaExpired", got.QuantaExpired, want.QuantaExpired},
				{"SchedulingTime", got.SchedulingTime, want.SchedulingTime},
				{"Makespan", got.Makespan, want.Makespan},
				{"WorkerBusy", got.WorkerBusy, want.WorkerBusy},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s: Simulate shard 0 = %v, machine.Run = %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

// scriptedShard is a shardHandle for the live router whose load summary is
// the simulation shard's exact worker state at the mirrored instant, and
// which records the submissions it is handed.
type scriptedShard struct {
	sim *simFed
	id  int
	now *simtime.Instant
	got []task.ID
}

func (s *scriptedShard) SubmitBatch(ts []*task.Task) error {
	for _, tk := range ts {
		s.got = append(s.got, tk.ID)
	}
	return nil
}

func (s *scriptedShard) LoadSummary() livecluster.Summary {
	sum, _ := s.sim.load(s.id, *s.now)
	return sum
}

func (s *scriptedShard) Placeable() bool                   { return true }
func (s *scriptedShard) Counters() map[string]int64        { return nil }
func (s *scriptedShard) SettledTasks() int64               { return 0 }
func (s *scriptedShard) Seal()                             {}
func (s *scriptedShard) Wait() (*metrics.RunResult, error) { return nil, nil }
func (s *scriptedShard) Journal() ([]obs.Entry, int64)     { return nil, 0 }

// liveMirror sits between the simulation and its routing core as the core's
// driver: every call is forwarded to the simulation, and every decision the
// core reports is replayed, at the same instant and against the same shard
// state, through the live router's own entry points.
type liveMirror struct {
	t   *testing.T
	sim *simFed
	fed *Federation
	now simtime.Instant
}

func (m *liveMirror) load(i int, now simtime.Instant) (livecluster.Summary, bool) {
	return m.sim.load(i, now)
}

func (m *liveMirror) handoff(s int, batch []*task.Task, now simtime.Instant) error {
	return m.sim.handoff(s, batch, now)
}

func (m *liveMirror) notePlaced(tk *task.Task, s int, now simtime.Instant) {
	m.sim.notePlaced(tk, s, now)
	m.now = now
	m.fed.routeBatch([]*task.Task{tk}, now)
}

func (m *liveMirror) noteMigrated(mg migration, now simtime.Instant) {
	m.sim.noteMigrated(mg, now)
	if !m.replay(mg.from, mg.task.ID, mg.reason, now) {
		m.t.Errorf("task %d off shard %d (%s): the simulation migrated it to shard %d, the live router declined",
			mg.task.ID, mg.from, mg.reason, mg.to)
	}
}

func (m *liveMirror) noteDeclined(id task.ID, from int, reason string, now simtime.Instant) {
	m.sim.noteDeclined(id, from, reason, now)
	if m.replay(from, id, reason, now) {
		m.t.Errorf("task %d off shard %d (%s): the simulation declined it, the live router migrated it", id, from, reason)
	}
}

// replay drives the live router with one bounce: a shard's reject callback,
// or — for a task stranded on a dead shard — the salvage call recoverShard
// makes per outstanding task.
func (m *liveMirror) replay(from int, id task.ID, reason string, now simtime.Instant) bool {
	m.now = now
	if reason != "shard-death" {
		return m.fed.onReject(from, id, admission.Reason(reason), now)
	}
	m.fed.mu.Lock()
	defer m.fed.mu.Unlock()
	return m.fed.rt.salvage(from, id, reason, now)
}

// TestLiveRouterMatchesSimulate ties the two drivers of the routing core
// together: a Simulate run with bounces, a shard kill and a rejoin is
// mirrored decision by decision into a live Federation whose shards report
// the simulation's worker state, and the live router must produce the same
// per-shard submission sequences, the same tried sets and the same counters.
func TestLiveRouterMatchesSimulate(t *testing.T) {
	p := workload.DefaultParams(8)
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 40 * time.Microsecond
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tp := Topology{Shards: 4, WorkersPerShard: 2}
	for _, placement := range []Placement{AffinityFirst, LeastCE, Hashed} {
		t.Run(placement.String(), func(t *testing.T) {
			simSeq := make([][]task.ID, tp.Shards)
			sim, err := newSim(SimConfig{
				Workload:  w,
				Topology:  tp,
				Placement: placement,
				Migrate:   true,
				Admission: admission.Config{Policy: admission.Reject, QueueCap: 4, RejectHopeless: true},
				ShardEvents: []ShardEvent{
					{At: w.Tasks[len(w.Tasks)/4].Arrival, Shard: 1, Kind: ShardKill},
					{At: w.Tasks[len(w.Tasks)/2].Arrival, Shard: 1, Kind: ShardRejoin},
				},
				Transport: func(shard int, batch []*task.Task) []*task.Task {
					for _, tk := range batch {
						simSeq[shard] = append(simSeq[shard], tk.ID)
					}
					return batch
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			fed, err := New(Config{Workload: w, Topology: tp, Placement: placement, Migrate: true})
			if err != nil {
				t.Fatal(err)
			}
			mirror := &liveMirror{t: t, sim: sim, fed: fed}
			fed.handles = make([]shardHandle, tp.Shards)
			for i := range fed.handles {
				fed.handles[i] = &scriptedShard{sim: sim, id: i, now: &mirror.now}
			}
			sim.rt.d = mirror
			res, err := sim.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if res.Migrated == res.Salvaged || res.Rejected == res.SalvageLost || res.Salvaged+res.SalvageLost == 0 || res.Rejoins != 1 {
				t.Fatalf("script does not cover every path: %+v", res)
			}
			for i, h := range fed.handles {
				if got := h.(*scriptedShard).got; !reflect.DeepEqual(got, simSeq[i]) {
					t.Errorf("shard %d: live router submitted %d tasks, the simulation %d, or in another order",
						i, len(got), len(simSeq[i]))
				}
			}
			if !reflect.DeepEqual(fed.rt.tried, sim.rt.tried) {
				t.Error("tried sets differ")
			}
			if got, want := fed.rt.result(), sim.rt.result(); !reflect.DeepEqual(got, want) {
				t.Errorf("router counters differ:\nlive %+v\nsim  %+v", got, want)
			}
		})
	}
}
