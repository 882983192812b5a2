package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// This file is the worker-track Chrome view of the journal and the one
// Chrome trace-event encoding both views share (flow.go is the task-track
// view). Load either output in chrome://tracing or Perfetto.

// chromeEvent is one entry of the Chrome trace-event format (the JSON array
// flavour).
type chromeEvent struct {
	Name     string            `json:"name"`
	Phase    string            `json:"ph"`
	TimeUS   float64           `json:"ts"` // microseconds
	DurUS    float64           `json:"dur,omitempty"`
	PID      int               `json:"pid"`
	TID      int               `json:"tid"`
	Args     map[string]string `json:"args,omitempty"`
	Category string            `json:"cat,omitempty"`
}

const (
	// hostTID is the synthetic thread id of the scheduling host; worker k
	// renders as thread k.
	hostTID  = -1
	tracePID = 1 // the worker-track view; the task-track view is flowPID
)

// us converts a virtual instant or a duration to trace-event microseconds.
func us[T ~int64](t T) float64 {
	return float64(t) / float64(time.Microsecond)
}

func threadName(pid, tid int, name string) chromeEvent {
	return chromeEvent{
		Name: "thread_name", Phase: "M", PID: pid, TID: tid,
		Args: map[string]string{"name": name},
	}
}

func instant(e *Entry, pid, tid int, name, cat string, args map[string]string) chromeEvent {
	return chromeEvent{
		Name: name, Phase: "i", Category: cat,
		TimeUS: us(e.Virtual), PID: pid, TID: tid, Args: args,
	}
}

func verdict(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// WriteChromeTrace renders journal entries machine-centric: scheduling
// phases are spans on the host track, task executions spans on their
// worker's track, and arrivals, purges, heartbeats, failures, reroutes and
// the admission and routing decisions instants on the track they concern.
// A timeline that is not the whole run says so instead of presenting itself
// as complete: entries whose type has no track (run-start, straggler,
// redial, ...) and the evicted entries the journal reported with this
// export are counted into process metadata.
func WriteChromeTrace(w io.Writer, entries []Entry, evicted int64) error {
	events := make([]chromeEvent, 0, len(entries)+3)
	events = append(events, threadName(tracePID, hostTID, "host (scheduler)"))
	seenWorkers := map[int]bool{}
	worker := func(k int) int {
		if !seenWorkers[k] {
			seenWorkers[k] = true
			events = append(events, threadName(tracePID, k, fmt.Sprintf("worker %d", k)))
		}
		return k
	}
	host := func(e *Entry, name, cat string, args map[string]string) {
		events = append(events, instant(e, tracePID, hostTID, name, cat, args))
	}

	untracked := 0
	var openPhase *Entry
	for i := range entries {
		e := &entries[i]
		id := strconv.Itoa(e.Task)
		switch e.Type {
		case "phase-start":
			openPhase = e
		case "phase-end":
			start := e.Virtual.Add(-e.Dur)
			if openPhase != nil && openPhase.Phase == e.Phase {
				start = openPhase.Virtual
			}
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("phase %d", e.Phase), Phase: "X", Category: "scheduling",
				TimeUS: us(start), DurUS: us(e.Dur), PID: tracePID, TID: hostTID,
			})
			openPhase = nil
		case "exec":
			events = append(events, chromeEvent{
				Name: "task " + id, Phase: "X", Category: "execution",
				TimeUS: us(e.Virtual), DurUS: us(e.Dur), PID: tracePID, TID: worker(e.Worker),
				Args: map[string]string{"deadline": verdict(e.Hit)},
			})
		case "deliver":
			// Deliveries are implied by the execution spans; skip to keep
			// the trace readable.
		case "arrival":
			host(e, "arrival", "lifecycle", map[string]string{"task": id})
		case "purge", "admit":
			host(e, e.Type+" task "+id, "lifecycle", map[string]string{"task": id})
		case "heartbeat":
			events = append(events, instant(e, tracePID, worker(e.Worker), "heartbeat", "liveness", nil))
		case "worker-down":
			events = append(events, instant(e, tracePID, worker(e.Worker),
				fmt.Sprintf("worker %d down", e.Worker), "failure", map[string]string{"reason": e.Detail}))
		case "lost":
			events = append(events, instant(e, tracePID, worker(e.Worker),
				"lost task "+id, "failure", map[string]string{"task": id}))
		case "reroute":
			host(e, "reroute task "+id, "failure",
				map[string]string{"task": id, "from": fmt.Sprintf("worker %d", e.Worker)})
		case "shed":
			host(e, "shed task "+id, "overload", map[string]string{"task": id, "reason": e.Detail})
		case "bounce":
			host(e, "bounce task "+id, "federation", map[string]string{"task": id, "reason": e.Detail})
		case "route", "migrate":
			// The destination shard rides in Worker (see Observer.Route).
			host(e, fmt.Sprintf("%s task %s -> shard %d", e.Type, id, e.Worker), "federation",
				map[string]string{"task": id, "shard": strconv.Itoa(e.Worker), "detail": e.Detail})
		default:
			untracked++
		}
	}
	if untracked > 0 || evicted > 0 {
		events = append(events, chromeEvent{
			Name: "process_labels", Phase: "M", PID: tracePID,
			Args: map[string]string{"labels": fmt.Sprintf(
				"%d journal entries without a trace track omitted, %d evicted", untracked, evicted)},
		})
	}
	return json.NewEncoder(w).Encode(events)
}
