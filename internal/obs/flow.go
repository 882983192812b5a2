package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rtsads/internal/simtime"
)

// This file is the task-track Chrome view of the journal: where
// WriteChromeTrace renders the run machine-centric (one track per worker
// plus the host), this renders it task-centric — one track per task flow,
// showing each task's queued time, lifecycle decisions (admission, routing,
// migration, reroutes) and execution as one horizontal story. Load the
// output in chrome://tracing or Perfetto.

const flowPID = 2 // distinct from the machine-centric trace's pid 1

// WriteTaskFlowTrace exports lifecycle entries (one journal or a
// federation merge) as Chrome trace-event JSON with one track per task:
// a queued span from arrival to execution start, the execution span, and
// instants for every lifecycle decision in between. Tasks are tracks in
// id order; the terminal state is part of the track name so a glance finds
// the shed and lost flows.
func WriteTaskFlowTrace(w io.Writer, entries []Entry) error {
	traces := AssembleTaskTraces(entries)
	ids := make([]int, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	events := make([]chromeEvent, 0, len(entries)+len(ids))
	for _, id := range ids {
		tt := traces[id]
		name := fmt.Sprintf("task %d", id)
		if tt.Terminal != "" {
			name += " · " + tt.Terminal
		}
		events = append(events, threadName(flowPID, id, name))

		var arrivalAt simtime.Instant
		haveArrival := false
		var exec *Entry
		for i := range tt.Spans {
			if tt.Spans[i].Type == "exec" {
				exec = &tt.Spans[i]
			}
		}
		for i := range tt.Spans {
			e := &tt.Spans[i]
			switch e.Type {
			case "arrival":
				if !haveArrival {
					arrivalAt, haveArrival = e.Virtual, true
				}
				events = append(events, flowInstant(e, "arrival", "lifecycle", nil))
			case "admit":
				events = append(events, flowInstant(e, "admit", "lifecycle",
					map[string]string{"slack": e.Slack.String(), "shard": fmt.Sprintf("%d", e.Shard)}))
			case "route", "migrate":
				events = append(events, flowInstant(e, fmt.Sprintf("%s -> shard %d", e.Type, e.Worker), "federation",
					map[string]string{"detail": e.Detail}))
			case "route-reject", "bounce":
				events = append(events, flowInstant(e, e.Type, "federation",
					map[string]string{"reason": e.Detail}))
			case "reroute":
				events = append(events, flowInstant(e, fmt.Sprintf("reroute from worker %d", e.Worker), "failure", nil))
			case "shed", "purge", "lost":
				events = append(events, flowInstant(e, e.Type, "terminal",
					map[string]string{"detail": e.Detail}))
			case "deliver":
				events = append(events, flowInstant(e, fmt.Sprintf("deliver -> worker %d", e.Worker), "lifecycle",
					map[string]string{"comm": e.Dur.String()}))
			case "exec":
				events = append(events, chromeEvent{
					Name: fmt.Sprintf("exec on worker %d", e.Worker), Phase: "X", Category: "execution",
					TimeUS: us(e.Virtual), DurUS: us(e.Dur), PID: flowPID, TID: id,
					Args: map[string]string{"deadline": verdict(e.Hit), "slack": e.Slack.String()},
				})
			}
		}
		// The queued span makes waiting visible: arrival up to execution
		// start (or up to the last span for flows that never executed).
		if haveArrival && len(tt.Spans) > 0 {
			end := tt.Spans[len(tt.Spans)-1].Virtual
			if exec != nil {
				end = exec.Virtual
			}
			if end.After(arrivalAt) {
				events = append(events, chromeEvent{
					Name: "queued", Phase: "X", Category: "queue",
					TimeUS: us(arrivalAt), DurUS: us(end.Sub(arrivalAt)), PID: flowPID, TID: id,
				})
			}
		}
	}
	return json.NewEncoder(w).Encode(events)
}

func flowInstant(e *Entry, name, cat string, args map[string]string) chromeEvent {
	return instant(e, flowPID, e.Task, name, cat, args)
}

// WriteTaskFlowTrace renders this journal's lifecycle as a task-per-track
// Chrome trace.
func (j *Journal) WriteTaskFlowTrace(w io.Writer) error {
	return WriteTaskFlowTrace(w, j.Snapshot())
}
