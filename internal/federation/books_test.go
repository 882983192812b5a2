package federation

import (
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/db"
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

// booked is one scheduler domain's books and the observer they were
// mirrored into.
type booked struct {
	res *metrics.RunResult
	o   *obs.Observer
}

// TestBooksThreeDrivers runs every driver of machine.Host through the paths
// that book the most kinds of fact — worker crashes, shard kills and
// rejoins behind an admission gate, live faults and a graceful stop — and
// checks each domain's books three ways: they balance, the registry mirrors
// them, and (when nothing was evicted) the journal's entries count them.
func TestBooksThreeDrivers(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 120
	p.SF = 2
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 100 * time.Microsecond
	p.DB = db.Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 10, KeyAttr: 0}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	mid := w.Tasks[len(w.Tasks)/3].Arrival

	drivers := []struct {
		name string
		run  func(t *testing.T) []booked
	}{
		{"machine.Run with FailAt", func(t *testing.T) []booked {
			planner, err := policy.Default().New(string(policy.RTSADS), policy.Options{Search: core.SearchConfig{
				Workers:    w.Params.Workers,
				Comm:       func(tk *task.Task, k int) time.Duration { return w.Cost.Cost(tk.Affinity, k) },
				VertexCost: time.Microsecond,
				Policy:     core.NewAdaptive(),
			}})
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New(0)
			m, err := machine.New(machine.Config{
				Workers: w.Params.Workers, Planner: planner, Obs: o,
				FailAt: map[int]simtime.Instant{1: mid},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(w.Tasks)
			if err != nil {
				t.Fatal(err)
			}
			return []booked{{res, o}}
		}},
		{"Simulate with ShardEvents and admission", func(t *testing.T) []booked {
			observers := []*obs.Observer{obs.New(0), obs.New(0)}
			res, err := Simulate(SimConfig{
				Workload:  w,
				Topology:  Topology{Shards: 2, WorkersPerShard: 2},
				Placement: LeastCE,
				Migrate:   true,
				Admission: admission.Config{Policy: admission.ShedLeastSlack, QueueCap: 6, RejectHopeless: true},
				Obs:       observers,
				ShardEvents: []ShardEvent{
					{At: mid, Shard: 1, Kind: ShardKill},
					{At: w.Tasks[2*len(w.Tasks)/3].Arrival, Shard: 1, Kind: ShardRejoin},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Reconcile(); err != nil {
				t.Error(err)
			}
			return []booked{{res.Shards[0], observers[0]}, {res.Shards[1], observers[1]}}
		}},
		{"livecluster with faults and a Stop", func(t *testing.T) []booked {
			plan, err := faultinject.Parse("kill=0@3ms;delay=1:2:200us@0s")
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New(0)
			c, err := livecluster.New(livecluster.Config{
				Workload:  w,
				Scale:     50,
				Faults:    plan,
				Admission: admission.Config{Policy: admission.Reject, QueueCap: 8, RejectHopeless: true},
				Obs:       o,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Stop halfway through the arrivals: 6 ms virtual, 300 ms wall.
			stop := time.AfterFunc(300*time.Millisecond, func() { c.Stop(100 * time.Millisecond) })
			defer stop.Stop()
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			return []booked{{res, o}}
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			for i, b := range d.run(t) {
				t.Logf("domain %d: %s", i, b.res)
				if err := b.res.Balance(); err != nil {
					t.Errorf("domain %d: %v", i, err)
				}
				mirror := obs.Mirror(b.res)
				snap := b.o.Registry().Snapshot()
				for name, want := range mirror {
					if got := snap[name]; got != int64(want) {
						t.Errorf("domain %d: registry %s = %d, books say %d", i, name, got, want)
					}
				}
				entries, evicted := b.o.Journal().Export()
				if evicted != 0 {
					continue
				}
				for name, got := range machine.Journaled(entries) {
					if got != mirror[name] {
						t.Errorf("domain %d: journal books %d for %s, books say %d", i, got, name, mirror[name])
					}
				}
			}
		})
	}
}
