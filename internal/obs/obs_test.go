package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rtsads/internal/simtime"
)

func TestNilObserverSafe(t *testing.T) {
	var o *Observer
	o.SetWorkers(3)
	o.Arrival(1, 0, 5)
	o.Admitted(1, 5, 0)
	o.PhaseStart(0, 1, 0)
	o.PhaseEnd(0, 1, PhaseStats{})
	o.Deliver(0, 1, 0, 0, 1)
	o.Exec(1, 0, 1, 2, true, time.Millisecond, 0)
	o.Route(1, 0, "", 0)
	o.Migrate(1, 1, "", 0)
	o.RouteReject(1, "", 0)
	o.Purge(2, 1)
	o.Lost(3, 0, 1)
	o.Reroute(4, 0, 1)
	o.WorkerDown(0, true, "x", 1)
	o.StragglerReclaim(0, 1)
	o.HeartbeatSent(0)
	o.HeartbeatRecv(0, 1)
	o.Redial(0, true, 1)
	o.WorkerExecuted(0, time.Millisecond)
	o.WorkerOvershoot(time.Millisecond)
	o.Inflight(1)
	o.RunEnd(2, "done")
	if o.Registry() != nil || o.Journal() != nil {
		t.Error("nil observer exposes components")
	}
	if s := o.SLOSummary(); s != (SLOSummary{}) {
		t.Errorf("nil observer SLO summary = %+v, want zero", s)
	}
	o.StartProgress(&strings.Builder{}, time.Second)() // no-op stop
}

func TestObserverCountsAndJournal(t *testing.T) {
	o := New(0)
	o.SetWorkers(2)
	o.Arrival(1, 10, 30)
	o.PhaseStart(0, 1, 10)
	o.PhaseEnd(0, 15, PhaseStats{Quantum: 5, Used: 4, Generated: 7, Backtracks: 2, DeadEnd: true, Expired: true,
		Degraded: true, Expanded: 6})
	o.Deliver(0, 1, 1, 2, 15)
	o.Exec(1, 1, 15, 20, true, 10, 10)
	o.Exec(2, 0, 15, 30, false, 25, -5)
	o.Purge(3, 20)
	o.HeartbeatRecv(1, 21)
	o.WorkerDown(1, false, "reconnected", 22)
	o.WorkerDown(1, true, "gone", 23)
	o.WorkerDown(1, true, "gone again", 24) // same worker: must not double-count
	o.Reroute(4, 1, 24)
	o.Lost(5, 1, 25)
	o.StragglerReclaim(0, 26)
	o.Redial(1, false, 27)

	snap := o.Registry().Snapshot()
	want := map[string]int64{
		MetricPhases:         1,
		MetricVertices:       7,
		MetricBacktracks:     2,
		MetricDeadEnds:       1,
		MetricQuantaExpired:  1,
		MetricArrivals:       1,
		MetricDeliveries:     1,
		MetricHits:           1,
		MetricMissed:         1,
		MetricPurged:         1,
		MetricLost:           1,
		MetricRerouted:       1,
		MetricWorkerFailures: 1,
		MetricDisruptions:    1,
		MetricStragglers:     1,
		MetricHeartbeatsRecv: 1,
		MetricRedials:        1,
		MetricRedialFailures: 1,
		MetricWorkersAlive:   1,
		MetricWorkersTotal:   2,
		MetricSearchExpanded: 6,
		MetricDegradedPhases: 1,
		// 1 hit over 4 terminals (hit, miss, purge, lost) = 250000 ppm.
		MetricGuaranteeRatio: 250_000,
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %d, want %d", name, snap[name], v)
		}
	}

	health := o.Health()
	if len(health) != 2 || !health[0].Alive || health[1].Alive {
		t.Errorf("health = %+v, want worker 0 alive, worker 1 dead", health)
	}
	if got := o.LastVirtual(); got != 27 {
		t.Errorf("LastVirtual = %d, want 27", got)
	}

	// The worker-track view of the journal shows every traceable event,
	// including the live kinds.
	entries, evicted := o.Journal().Export()
	view := chromeView(t, entries, evicted)
	for name, n := range map[string]int{"task ": 2, "heartbeat": 1, "worker 1 down": 2, "reroute task 4": 1} {
		if got := len(named(view, name)); got != n {
			t.Errorf("chrome view has %d %q events, want %d", got, name, n)
		}
	}
	down := named(view, "worker 1 down")
	if reason, _ := down[1]["args"].(map[string]any)["reason"].(string); !strings.Contains(reason, "fatal") {
		t.Errorf("fatal worker-down reason = %q", reason)
	}
}

func TestBridgeJournalToChromeTrace(t *testing.T) {
	o := New(0)
	o.SetWorkers(2)
	o.PhaseStart(0, 1, 0)
	o.PhaseEnd(0, 5, PhaseStats{Used: 5})
	o.Exec(1, 0, 5, 10, true, 10, 3)
	o.HeartbeatRecv(1, 6)
	o.WorkerDown(1, true, "killed", 7)
	o.Reroute(2, 1, 8)
	o.Lost(3, 1, 9)
	o.Route(4, 1, "policy=x", 2)  // federation kind
	o.Migrate(4, 0, "verdict", 3) // federation kind
	o.Overloaded(0, 2, 5, 9)      // no trace track

	entries, evicted := o.Journal().Export()
	view := chromeView(t, entries, evicted)
	for name, n := range map[string]int{
		"phase 0": 1, "task 1": 1, "heartbeat": 1, "worker 1 down": 1, "reroute task 2": 1,
		"lost task 3": 1, "route task 4 -> shard 1": 1, "migrate task 4 -> shard 0": 1,
	} {
		if got := len(named(view, name)); got != n {
			t.Errorf("chrome view has %d %q events, want %d", got, name, n)
		}
	}
	// run-start (from SetWorkers) and overload have no track: they must be
	// counted in the trace's metadata, not silently dropped.
	labels := named(view, "process_labels")
	if len(labels) != 1 || !strings.HasPrefix(labels[0]["args"].(map[string]any)["labels"].(string),
		"2 journal entries without a trace track omitted") {
		t.Errorf("chrome view does not report 2 untracked entries (run-start, overload): %v", labels)
	}
}

func TestStartProgress(t *testing.T) {
	o := New(0)
	o.SetWorkers(2)
	o.Exec(1, 0, 0, 5, true, 5, 2)
	var b syncBuilder
	stop := o.StartProgress(&b, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	out := b.String()
	if !strings.Contains(out, "[obs run]") && !strings.Contains(out, "[obs final]") {
		t.Errorf("no progress lines written: %q", out)
	}
	if !strings.Contains(out, "hits=1") {
		t.Errorf("progress line missing counters: %q", out)
	}
}

// syncBuilder is a strings.Builder safe for the progress goroutine.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// The worker calls WorkerOvershoot once per executed job: it must stay off
// the allocator.
func TestWorkerOvershootDoesNotAllocate(t *testing.T) {
	o := New(0)
	if n := testing.AllocsPerRun(100, func() { o.WorkerOvershoot(300 * time.Microsecond) }); n != 0 {
		t.Errorf("WorkerOvershoot allocates %v times per call", n)
	}
	if h := o.Registry().Histogram(MetricWorkerOvershoot); h.Count() != 101 || h.Sum() != 101*300*time.Microsecond {
		t.Errorf("overshoot histogram: count %d sum %v", h.Count(), h.Sum())
	}
}

// LastVirtual is the progress reporter's "now": the host loop, the
// completion collector and the transport goroutines all advance it, and a
// slower goroutine carrying an older instant must never overwrite a newer
// one. Seven goroutines climb 1..top in step while an eighth notes the
// maximum once, mid-climb: a climber caught between reading the old value
// and writing its own would bury the maximum for the rest of the run.
func TestLastVirtualIsMaxUnderConcurrentNotes(t *testing.T) {
	const climbers, top = 7, 400
	for rep := 0; rep < 200; rep++ {
		o := New(16)
		var wg sync.WaitGroup
		for g := 0; g <= climbers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g == climbers {
					for o.LastVirtual() < top/2 {
						runtime.Gosched()
					}
					o.note(top+1, Entry{Type: "heartbeat", Worker: g})
					return
				}
				for v := 1; v <= top; v++ {
					o.note(simtime.Instant(v), Entry{Type: "heartbeat", Worker: g})
				}
			}()
		}
		wg.Wait()
		if got := o.LastVirtual(); got != top+1 {
			t.Fatalf("repetition %d: LastVirtual = %d, want the maximum %d", rep, got, top+1)
		}
	}
}
