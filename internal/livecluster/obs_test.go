package livecluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"rtsads/internal/faultinject"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/workload"
)

// assertObsReconciles checks the acceptance criterion: every registry
// counter that mirrors a RunResult field matches it exactly at run end.
func assertObsReconciles(t *testing.T, o *obs.Observer, res *metrics.RunResult) {
	t.Helper()
	snap := o.Registry().Snapshot()
	for name, want := range map[string]int64{
		obs.MetricHits:           int64(res.Hits),
		obs.MetricMissed:         int64(res.ScheduledMissed),
		obs.MetricPurged:         int64(res.Purged),
		obs.MetricLost:           int64(res.LostToFailure),
		obs.MetricRerouted:       int64(res.Rerouted),
		obs.MetricWorkerFailures: int64(res.WorkerFailures),
		obs.MetricPhases:         int64(res.Phases),
		obs.MetricArrivals:       int64(res.Total),
	} {
		if snap[name] != want {
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
		Workload:          w,
		Scale:             50,
		Faults:            mustPlan(t, "kill=0@500us"),
		RecordCompletions: true,
		Obs:               o,
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
	if err := o.Journal().WriteChromeTrace(&b); err != nil {
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
	// Wake-up overshoot is observed at most once per executed job, and a
	// real timer never wakes exactly on target every time.
	executed := int64(res.Hits + res.ScheduledMissed)
	if n := o.Registry().Histogram(obs.MetricWorkerOvershoot).Count(); n == 0 || n > executed {
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
