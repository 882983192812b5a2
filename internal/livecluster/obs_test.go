package livecluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"rtsads/internal/faultinject"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// assertObsReconciles checks the acceptance criterion: every registry
// counter that mirrors a RunResult field matches it exactly at run end.
func assertObsReconciles(t *testing.T, o *obs.Observer, res *metrics.RunResult) {
	t.Helper()
	snap := o.Registry().Snapshot()
	for name, want := range obs.Mirror(res) {
		if snap[name] != int64(want) {
			t.Errorf("%s = %d, RunResult says %d", name, snap[name], want)
		}
	}
	if snap[obs.MetricInflight] != 0 {
		t.Errorf("inflight gauge = %d at run end, want 0", snap[obs.MetricInflight])
	}
}

// TestObsReconcilesChannelFailover runs the issue's acceptance scenario on
// the channel backend — a worker killed mid-run — and checks the observer's
// registry totals reconcile exactly with the final RunResult, the journal
// holds the fault story, and the worker-track view of it shows the run.
func TestObsReconcilesChannelFailover(t *testing.T) {
	w, err := workload.Generate(faultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Faults:   mustPlan(t, "kill=0@500us"),
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	assertFaultAccounting(t, res)
	assertObsReconciles(t, o, res)

	if res.WorkerFailures != 1 || res.Rerouted == 0 {
		t.Fatalf("scenario did not exercise failover: %s", res)
	}

	// The journal tells the fault story in order: a worker-down entry, then
	// reroutes naming the dead worker.
	var sawDown, sawReroute bool
	for _, e := range o.Journal().Snapshot() {
		switch e.Type {
		case "worker-down":
			if e.Worker == 0 && strings.HasPrefix(e.Detail, "fatal") {
				sawDown = true
			}
		case "reroute":
			if sawDown && e.Worker == 0 {
				sawReroute = true
			}
		}
	}
	if !sawDown || !sawReroute {
		t.Errorf("journal missing fault story: down=%v reroute-after-down=%v", sawDown, sawReroute)
	}

	// The Chrome view renders the same run from that journal: one span per
	// host phase, executions, the worker-down instant, reroutes.
	var b strings.Builder
	entries, evicted := o.Journal().Export()
	if err := obs.WriteChromeTrace(&b, entries, evicted); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), `{"name":"phase `); got != res.Phases {
		t.Errorf("chrome trace has %d phase spans, RunResult says %d phases", got, res.Phases)
	}
	for _, want := range []string{`{"name":"task `, `{"name":"worker 0 down"`, `{"name":"reroute task `} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("chrome trace of the live run has no %s event", want)
		}
	}
}

// TestObsReconcilesCleanRun checks reconciliation holds on a fault-free run
// too (no failure counters should move at all).
func TestObsReconcilesCleanRun(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	c, err := New(Config{Workload: w, Scale: 50, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	assertObsReconciles(t, o, res)
	snap := o.Registry().Snapshot()
	if snap[obs.MetricWorkerFailures] != 0 || snap[obs.MetricRerouted] != 0 {
		t.Errorf("fault counters moved on a clean run: %v", snap)
	}
	if snap[obs.MetricDeliveries] == 0 || snap[obs.MetricVertices] == 0 {
		t.Error("scheduling counters did not move")
	}
	if snap[obs.MetricWorkersAlive] != 2 {
		t.Errorf("workers alive = %d, want 2", snap[obs.MetricWorkersAlive])
	}
	// A shard ships this journal's blocks to its router as they are stored,
	// varint records (RTFW 7+): at most 32 bytes an entry on average.
	o.Journal().Visit(0, func(blocks []obs.Block, n int, _ int64) error {
		size := 0
		for _, b := range blocks {
			size += len(b.Recs)
		}
		if n == 0 || size > 32*n {
			t.Errorf("%d journal entries are stored in %d bytes, over 32 per entry", n, size)
		}
		t.Logf("%d journal entries are stored in %d bytes (%.1f per entry)", n, size, float64(size)/float64(n))
		return nil
	})
	// Wake-up overshoot is observed at most once per executed job, and a
	// real timer never wakes exactly on target every time.
	executed := int64(res.Hits + res.ScheduledMissed)
	overshoot := o.Registry().Histogram(obs.MetricWorkerOvershoot).Snapshot()
	if n := int64(overshoot.Count()); n == 0 || n > executed {
		t.Errorf("worker overshoot histogram holds %d samples for %d executed jobs", n, executed)
	}
}

// TestObsTCPHeartbeats runs the TCP backend with observability on and
// checks the transport-level counters move: heartbeats in both directions
// and per-worker job counts.
func TestObsTCPHeartbeats(t *testing.T) {
	const workers = 2
	w, err := workload.Generate(liveParams(workers))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, workers)
	serveErr := make(chan error, workers)
	for i := 0; i < workers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		addrs[i] = lis.Addr().String()
		go func() { serveErr <- ServeWorker(lis) }()
	}

	o := obs.New(0)
	live := Liveness{
		HeartbeatEvery: 5 * time.Millisecond,
		Timeout:        500 * time.Millisecond,
	}
	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Liveness: live,
		Obs:      o,
		Backend: func(clock *Clock, inj *faultinject.Injector) (Backend, error) {
			return NewTCPBackend(clock, w, addrs, TCPOptions{Liveness: live, Inject: inj, Obs: o})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	assertObsReconciles(t, o, res)

	snap := o.Registry().Snapshot()
	if snap[obs.MetricHeartbeatsSent] == 0 {
		t.Error("no heartbeats sent were counted")
	}
	if snap[obs.MetricHeartbeatsRecv] == 0 {
		t.Error("no heartbeats received were counted")
	}
	for i := 0; i < workers; i++ {
		select {
		case <-serveErr:
		case <-time.After(10 * time.Second):
			t.Fatal("a worker did not exit after the run")
		}
	}
}

// TestArrivalsMatchTotalOnEveryPath drives the three paths that settle tasks
// the host loop never absorbed — a stop before the last arrival, a cluster
// whose every worker died with arrivals still to come, a shard sealed with
// feed it never took in — and checks each such task is booked as an arrival
// like any other: the arrivals counter equals Total, and every shed or lost
// entry follows an arrival entry for its task.
func TestArrivalsMatchTotalOnEveryPath(t *testing.T) {
	p := liveParams(2)
	p.Arrival = workload.Poisson
	p.MeanInterArrival = time.Millisecond
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := func(r *metrics.RunResult) int { return r.ShedShutdown }
	cases := []struct {
		name string
		cfg  Config
		// before runs between New and Run.
		before func(*Cluster)
		// bucket is where every task must land.
		bucket func(*metrics.RunResult) int
	}{
		{"stopped before the last arrival", Config{}, func(c *Cluster) { c.Stop(0) }, shutdown},
		{"every worker dead", Config{Faults: mustPlan(t, "kill=0@0s;kill=1@0s")}, nil,
			func(r *metrics.RunResult) int { return r.LostToFailure }},
		{"sealed with feed left", Config{External: true}, func(c *Cluster) {
			if err := c.SubmitBatch(w.Tasks); err != nil {
				t.Fatal(err)
			}
			c.Stop(0)
		}, shutdown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New(0)
			cfg := tc.cfg
			cfg.Workload, cfg.Scale, cfg.Obs = w, 50, o
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.before != nil {
				tc.before(c)
			}
			res := runWithDeadline(t, c)
			if res.Total != len(w.Tasks) || tc.bucket(res) != res.Total {
				t.Errorf("want all %d tasks in one bucket: %s", len(w.Tasks), res)
			}
			if err := res.Balance(); err != nil {
				t.Error(err)
			}
			if got := o.Registry().Snapshot()[obs.MetricArrivals]; got != int64(res.Total) {
				t.Errorf("%s = %d, total = %d", obs.MetricArrivals, got, res.Total)
			}
			arrived := map[int]bool{}
			for _, e := range o.Journal().Snapshot() {
				switch e.Type {
				case "arrival":
					arrived[e.Task] = true
				case "shed", "lost":
					if !arrived[e.Task] {
						t.Errorf("task %d: %s entry without an arrival", e.Task, e.Type)
					}
				}
			}
		})
	}
}

// TestPoissonArrivalsJournaledInOrder: the host takes in a Poisson list's
// tasks as they arrive, so the journal's arrival entries, each stamped with
// its task's arrival instant, never go back in virtual time. A list ordered
// by deadline would hold every task behind a later arrival with an earlier
// deadline, and book it late.
func TestPoissonArrivalsJournaledInOrder(t *testing.T) {
	p := liveParams(4)
	p.NumTransactions = 200
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 80 * time.Microsecond
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	c, err := New(Config{Workload: w, Scale: 10, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)
	if err := res.Balance(); err != nil {
		t.Error(err)
	}
	var last simtime.Instant
	arrivals := 0
	for _, e := range o.Journal().Snapshot() {
		if e.Type != "arrival" {
			continue
		}
		if e.Virtual < last {
			t.Fatalf("task %d's arrival is journaled at %v, after one at %v", e.Task, e.Virtual, last)
		}
		last = e.Virtual
		arrivals++
	}
	if arrivals != len(w.Tasks) {
		t.Errorf("%d arrival entries for %d tasks", arrivals, len(w.Tasks))
	}
}
