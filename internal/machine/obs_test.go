package machine

import (
	"testing"

	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// assertObsParity checks the simulator mirrors the live cluster's
// observability contract: registry totals reconcile exactly with the final
// RunResult.
func assertObsParity(t *testing.T, o *obs.Observer, res *metrics.RunResult) {
	t.Helper()
	snap := o.Registry().Snapshot()
	for name, want := range obs.Mirror(res) {
		if snap[name] != int64(want) {
			t.Errorf("%s = %d, RunResult says %d", name, snap[name], want)
		}
	}
}

func TestMachineObsParity(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 150
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	m, err := New(Config{Workers: 3, Planner: plannerFor(t, 3, core.NewRTSADS), Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	assertObsParity(t, o, res)
	if snap := o.Registry().Snapshot(); snap[obs.MetricDeliveries] == 0 {
		t.Error("no deliveries counted")
	}
}

func TestMachineObsParityWithCrash(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 150
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	m, err := New(Config{
		Workers: 3,
		Planner: plannerFor(t, 3, core.NewRTSADS),
		FailAt:  map[int]simtime.Instant{1: simtime.Instant(2 * ms)},
		Obs:     o,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	assertObsParity(t, o, res)
	if res.WorkerFailures != 1 {
		t.Errorf("worker failures = %d after one injected crash, want 1", res.WorkerFailures)
	}
	// The journal names the crashed worker.
	var sawDown bool
	for _, e := range o.Journal().Snapshot() {
		if e.Type == "worker-down" && e.Worker == 1 {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("journal has no worker-down entry for the crashed worker")
	}
}
