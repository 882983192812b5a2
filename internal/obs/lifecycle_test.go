package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// fedJournals builds a two-shard-plus-router journal set for one migrated
// task (id 1) and one locally-completed task (id 2):
//
//	router: route 1 -> shard 0, route 2 -> shard 1, migrate 1 -> shard 1
//	shard 0: arrival/admit 1, bounce 1 (rejected after a victim eviction)
//	shard 1: full lifecycle for 2, then arrival/admit/deliver/exec for 1
func fedJournals() (router, shard0, shard1 *Journal) {
	router, shard0, shard1 = NewJournal(0), NewJournal(0), NewJournal(0)
	at := func(us int) simtime.Instant { return simtime.Instant(time.Duration(us) * time.Microsecond) }
	wall := time.Unix(1700000000, 0)
	rec := func(j *Journal, us int, e Entry) {
		e.Virtual = at(us)
		e.Wall = wall.Add(time.Duration(us) * time.Millisecond)
		j.Record(e)
	}

	rec(router, 0, Entry{Type: "route", Task: 1, Worker: 0, Detail: "policy=affinity"})
	rec(router, 1, Entry{Type: "route", Task: 2, Worker: 1, Detail: "policy=affinity"})

	rec(shard0, 0, Entry{Type: "arrival", Task: 1, Worker: -1, Deadline: at(400)})
	rec(shard0, 0, Entry{Type: "admit", Task: 1, Worker: -1, Slack: 400 * time.Microsecond, Deadline: at(400)})
	rec(shard0, 50, Entry{Type: "bounce", Task: 1, Worker: -1, Detail: "queue-full"})

	rec(router, 50, Entry{Type: "migrate", Task: 1, Worker: 1, Detail: "from shard 0"})

	rec(shard1, 1, Entry{Type: "arrival", Task: 2, Worker: -1, Deadline: at(300)})
	rec(shard1, 1, Entry{Type: "admit", Task: 2, Worker: -1, Slack: 299 * time.Microsecond, Deadline: at(300)})
	rec(shard1, 10, Entry{Type: "phase-end", Phase: 0, Worker: -1, Dur: 9 * time.Microsecond})
	rec(shard1, 10, Entry{Type: "deliver", Phase: 0, Task: 2, Worker: 0, Dur: 2 * time.Microsecond})
	rec(shard1, 20, Entry{Type: "exec", Task: 2, Worker: 0, Dur: 50 * time.Microsecond, Hit: true, Slack: 230 * time.Microsecond})

	rec(shard1, 51, Entry{Type: "arrival", Task: 1, Worker: -1, Deadline: at(400)})
	rec(shard1, 51, Entry{Type: "admit", Task: 1, Worker: -1, Slack: 349 * time.Microsecond, Deadline: at(400)})
	rec(shard1, 60, Entry{Type: "phase-end", Phase: 1, Worker: -1, Dur: 5 * time.Microsecond})
	rec(shard1, 60, Entry{Type: "deliver", Phase: 1, Task: 1, Worker: 1, Dur: 4 * time.Microsecond})
	rec(shard1, 80, Entry{Type: "exec", Task: 1, Worker: 1, Dur: 100 * time.Microsecond, Hit: true, Slack: 220 * time.Microsecond})
	return router, shard0, shard1
}

func mergedFed() []Entry {
	router, shard0, shard1 := fedJournals()
	return MergeEntries(map[int][]Entry{
		RouterShard: router.Snapshot(),
		0:           shard0.Snapshot(),
		1:           shard1.Snapshot(),
	})
}

func TestMergeEntriesOrderAndTags(t *testing.T) {
	merged := mergedFed()
	if len(merged) != 16 {
		t.Fatalf("merged %d entries, want 16", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		a, b := &merged[i-1], &merged[i]
		if a.Virtual > b.Virtual {
			t.Fatalf("entry %d (%s at %v) sorted after %s at %v", i-1, a.Type, a.Virtual, b.Type, b.Virtual)
		}
		// Wall time breaks ties between sources at the same virtual instant.
		if a.Virtual == b.Virtual && a.Wall.After(b.Wall) {
			t.Fatalf("wall-time tiebreak violated at entries %d/%d (%s / %s)", i-1, i, a.Type, b.Type)
		}
	}
	for i := range merged {
		e := &merged[i]
		switch e.Type {
		case "route", "migrate":
			if e.Shard != RouterShard {
				t.Errorf("%s entry tagged shard %d, want RouterShard", e.Type, e.Shard)
			}
		case "bounce":
			if e.Shard != 0 {
				t.Errorf("bounce entry tagged shard %d, want 0", e.Shard)
			}
		case "exec":
			if e.Shard != 1 {
				t.Errorf("exec entry tagged shard %d, want 1", e.Shard)
			}
		}
	}
}

func TestAssembleTaskTracesAcrossShards(t *testing.T) {
	merged := mergedFed()
	traces := AssembleTaskTraces(merged)
	if len(traces) != 2 {
		t.Fatalf("assembled %d task traces, want 2", len(traces))
	}
	t1 := traces[1]
	if t1.Terminal != TerminalCompleted {
		t.Errorf("task 1 terminal = %q, want completed", t1.Terminal)
	}
	// The migrated task's chain spans both shards and the router:
	// route, arrival+admit on shard 0, bounce, migrate, arrival+admit on
	// shard 1, deliver, exec.
	if len(t1.Spans) != 9 {
		types := make([]string, len(t1.Spans))
		for i := range t1.Spans {
			types[i] = t1.Spans[i].Type
		}
		t.Fatalf("task 1 has %d spans %v, want 9", len(t1.Spans), types)
	}
	if t1.Spans[0].Type != "route" || t1.Spans[len(t1.Spans)-1].Type != "exec" {
		t.Errorf("task 1 chain runs %s..%s, want route..exec", t1.Spans[0].Type, t1.Spans[len(t1.Spans)-1].Type)
	}

	// Slack accounting for the migrated task: budget 400µs decomposes
	// against the shard-1 execution (worker 1, phase 1).
	if t1.Slack == nil {
		t.Fatal("task 1 has no slack accounting")
	}
	s := t1.Slack
	if s.Budget != 400*time.Microsecond {
		t.Errorf("budget = %v, want 400µs", s.Budget)
	}
	if s.Planning != 5*time.Microsecond {
		t.Errorf("planning = %v, want 5µs (shard 1 phase 1)", s.Planning)
	}
	if s.Comm != 4*time.Microsecond {
		t.Errorf("comm = %v, want 4µs", s.Comm)
	}
	if s.WorkerWait != 20*time.Microsecond {
		t.Errorf("worker wait = %v, want 20µs (deliver at 60, exec at 80)", s.WorkerWait)
	}
	if s.Remaining != 220*time.Microsecond {
		t.Errorf("remaining = %v, want 220µs (deadline 400, finish 180)", s.Remaining)
	}
	// The identity holds exactly; queue wait absorbs the residue.
	if got := s.QueueWait + s.Planning + s.WorkerWait + s.Comm + s.Exec + s.Remaining; got != s.Budget {
		t.Errorf("slack identity broken: components sum to %v, budget %v", got, s.Budget)
	}

	if tt := TaskTraceFor(merged, 2); tt == nil || tt.Terminal != TerminalCompleted || len(tt.Spans) != 5 {
		t.Errorf("TaskTraceFor(2) = %+v, want completed with 5 spans", tt)
	}
	if tt := TaskTraceFor(merged, 99); tt != nil {
		t.Errorf("TaskTraceFor(99) = %+v, want nil", tt)
	}
}

func TestSpanViolations(t *testing.T) {
	merged := mergedFed()
	if v := SpanViolations(merged); len(v) != 0 {
		t.Fatalf("clean federation journal reports violations: %v", v)
	}

	// An admitted task with no terminal, and a task with two terminals.
	bad := append([]Entry(nil), merged...)
	bad = append(bad,
		Entry{Type: "admit", Task: 7, Worker: -1},
		Entry{Type: "exec", Task: 2, Worker: 0, Hit: false},
	)
	v := SpanViolations(bad)
	if len(v) != 2 {
		t.Fatalf("violations = %v, want 2 (task 2 double terminal, task 7 no terminal)", v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "task 2") || !strings.Contains(joined, "task 7") {
		t.Errorf("violations name the wrong tasks: %v", v)
	}

	// Unadmitted single terminals (a shed straight from the gate) are fine.
	ok := []Entry{
		{Type: "arrival", Task: 3, Worker: -1},
		{Type: "shed", Task: 3, Worker: -1, Detail: "hopeless"},
	}
	if v := SpanViolations(ok); len(v) != 0 {
		t.Errorf("gate-shed task flagged: %v", v)
	}
}

func TestWriteTaskFlowTraceFederation(t *testing.T) {
	merged := mergedFed()
	var b strings.Builder
	if err := WriteTaskFlowTrace(&b, merged); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("task-flow output is not valid trace JSON: %v", err)
	}
	var tracks, execs, queued, migrates int
	for _, e := range events {
		name, _ := e["name"].(string)
		switch {
		case name == "thread_name":
			tracks++
			args, _ := e["args"].(map[string]any)
			label, _ := args["name"].(string)
			if !strings.Contains(label, "completed") {
				t.Errorf("track label %q missing terminal state", label)
			}
		case strings.HasPrefix(name, "exec on worker"):
			execs++
		case name == "queued":
			queued++
		case strings.HasPrefix(name, "migrate -> shard"):
			migrates++
		}
		if pid, _ := e["pid"].(float64); pid != 2 {
			t.Errorf("event %q on pid %v, want the task-flow pid 2", name, pid)
		}
	}
	if tracks != 2 || execs != 2 || queued != 2 || migrates != 1 {
		t.Errorf("tracks=%d execs=%d queued=%d migrates=%d, want 2/2/2/1", tracks, execs, queued, migrates)
	}
}

func TestBridgeFederationKindsAndDropAccounting(t *testing.T) {
	merged := mergedFed()
	// phase-end ×2 are spans; the rest are lifecycle instants. Nothing here
	// is untracked, so the view carries no truncation metadata.
	view := chromeView(t, merged, 0)
	if labels := named(view, "process_labels"); len(labels) != 0 {
		t.Errorf("an all-traceable journal reported truncation: %v", labels)
	}
	for name, n := range map[string]int{"route task": 2, "migrate task": 1, "bounce task": 1, "admit task": 3, "task ": 2} {
		if got := len(named(view, name)); got != n {
			t.Errorf("chrome view has %d %q events, want %d", got, name, n)
		}
	}

	// A journal mixing tracked and untracked types reports the exact
	// count through its export too.
	j := NewJournal(0)
	for _, e := range merged {
		j.Record(e)
	}
	j.Record(Entry{Type: "run-start", Worker: -1})
	j.Record(Entry{Type: "overload", Worker: 0})
	var b strings.Builder
	entries, evicted := j.Export()
	if err := WriteChromeTrace(&b, entries, evicted); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "2 journal entries without a trace track omitted") {
		t.Errorf("chrome export does not report the untracked count:\n%s", b.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test_seconds")
	if s := h.Snapshot(); s.Quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", s.Quantile(0.5))
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	s := h.Snapshot()
	// A quantile is its bucket's upper edge: the median, 50ms, lies in
	// (32.768ms, 65.536ms].
	p50 := s.Quantile(0.50)
	if p50 != 65536*time.Microsecond {
		t.Errorf("p50 = %v, want 65.536ms", p50)
	}
	if p99 := s.Quantile(0.99); p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	// A sample past the last finite edge clamps to the largest sample.
	h.Observe(2 * time.Hour)
	if s = h.Snapshot(); s.Quantile(1) != 2*time.Hour {
		t.Errorf("q=1 with a +Inf sample = %v, want 2h", s.Quantile(1))
	}
}

// The federation rollup is exact: summing two observers' inputs gives the
// summary of one observer fed both observers' samples.
func TestSLOCombine(t *testing.T) {
	a, b, both := New(0), New(0), New(0)
	feed := func(o *Observer, id task.ID, slack time.Duration, hit bool) {
		o.Arrival(id, 0, 0)
		o.Admitted(id, slack, 0)
		o.Exec(id, 0, 0, 1, hit, time.Millisecond, slack/2)
	}
	for i := 0; i < 10; i++ {
		slack := time.Duration(i+1) * 300 * time.Microsecond
		feed(a, task.ID(i), slack, i != 0)
		feed(both, task.ID(i), slack, i != 0)
	}
	for i := 10; i < 40; i++ {
		slack := time.Duration(i) * 7 * time.Millisecond
		feed(b, task.ID(i), slack, i%2 == 0)
		feed(both, task.ID(i), slack, i%2 == 0)
	}
	var fed SLOInput
	fed.Add(a.SLOInput())
	fed.Add(b.SLOInput())
	out, want := fed.Summary(), both.SLOInput().Summary()
	if out != want {
		t.Errorf("rollup of two observers:\n%+v\nwant the summary of one observer fed both:\n%+v", out, want)
	}
	if out.Hits != 24 || out.Missed != 16 || out.Arrivals != 40 || out.Admitted != 40 {
		t.Errorf("combined counters wrong: %+v", out)
	}
	// 24 hits over 40 terminals.
	if out.GuaranteeRatioPPM != 600_000 {
		t.Errorf("combined ratio = %d, want 600000", out.GuaranteeRatioPPM)
	}
	if out.SlackAdmission.Count != 40 || out.SlackCompletion.Count != 40 {
		t.Errorf("combined slack counts = %d/%d, want 40/40", out.SlackAdmission.Count, out.SlackCompletion.Count)
	}
}
