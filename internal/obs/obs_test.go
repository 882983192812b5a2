package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"rtsads/internal/trace"
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
	if o.Registry() != nil || o.Journal() != nil || o.TraceSink() != nil {
		t.Error("nil observer exposes components")
	}
	if s := o.SLOSummary(); s != (SLOSummary{}) {
		t.Errorf("nil observer SLO summary = %+v, want zero", s)
	}
	o.StartProgress(&strings.Builder{}, time.Second)() // no-op stop
}

func TestObserverCountsAndJournal(t *testing.T) {
	o := New(0)
	sink := o.EnableTrace(0)
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

	// The trace sink saw every traceable event, including the new kinds.
	log := sink.Snapshot()
	for kind, n := range map[trace.Kind]int{
		trace.Exec: 2, trace.Heartbeat: 1, trace.WorkerDown: 2, trace.Reroute: 1,
	} {
		if got := len(log.Filter(kind)); got != n {
			t.Errorf("trace sink has %d %v events, want %d", got, kind, n)
		}
	}
	down := log.Filter(trace.WorkerDown)
	if !strings.Contains(down[1].Detail, "fatal") {
		t.Errorf("fatal worker-down detail = %q", down[1].Detail)
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
	o.Lost(3, 1, 9)               // federation kind: carried since the bridge learned it
	o.Route(4, 1, "policy=x", 2)  // federation kind
	o.Migrate(4, 0, "verdict", 3) // federation kind
	o.Overloaded(0, 2, 5, 9)      // still no trace track: must be counted, not silently dropped

	events, droppedN := TraceEvents(o.Journal().Snapshot())
	kinds := map[trace.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for k, n := range map[trace.Kind]int{
		trace.PhaseStart: 1, trace.PhaseEnd: 1, trace.Exec: 1,
		trace.Heartbeat: 1, trace.WorkerDown: 1, trace.Reroute: 1,
		trace.Lost: 1, trace.Route: 1, trace.Migrate: 1,
	} {
		if kinds[k] != n {
			t.Errorf("bridge produced %d %v events, want %d", kinds[k], k, n)
		}
	}
	// run-start (from SetWorkers) and overload have no trace kind.
	if droppedN != 2 {
		t.Errorf("bridge dropped %d entries, want 2 (run-start, overload)", droppedN)
	}

	var b strings.Builder
	if err := o.Journal().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var chrome []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &chrome); err != nil {
		t.Fatalf("bridge output is not valid trace JSON: %v", err)
	}
	var sawReroute, sawDown, sawHeartbeat, sawLost, sawRoute, sawDropMeta bool
	for _, e := range chrome {
		name, _ := e["name"].(string)
		switch {
		case strings.HasPrefix(name, "reroute"):
			sawReroute = true
		case strings.Contains(name, "down"):
			sawDown = true
		case name == "heartbeat":
			sawHeartbeat = true
		case strings.HasPrefix(name, "lost"):
			sawLost = true
		case strings.HasPrefix(name, "route"):
			sawRoute = true
		case name == "process_labels":
			sawDropMeta = true
		}
	}
	if !sawReroute || !sawDown || !sawHeartbeat || !sawLost || !sawRoute {
		t.Errorf("chrome trace missing live-run events (reroute=%v down=%v heartbeat=%v lost=%v route=%v):\n%s",
			sawReroute, sawDown, sawHeartbeat, sawLost, sawRoute, b.String())
	}
	if !sawDropMeta || !strings.Contains(b.String(), "without a trace track") {
		t.Errorf("chrome trace does not report the dropped-entry count:\n%s", b.String())
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
