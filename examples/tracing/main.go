// tracing: journals the full timeline of an RT-SADS run — phases,
// deliveries, executions, purges — and renders views of that one journal:
// its first entries as JSON Lines and a per-worker Gantt chart, then the
// response-time distribution.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/machine"
	"rtsads/internal/obs"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	params := workload.DefaultParams(4)
	params.NumTransactions = 40
	w, err := workload.Generate(params)
	if err != nil {
		return err
	}

	planner, err := core.NewRTSADS(core.SearchConfig{
		Workers: params.Workers,
		Comm: func(t *task.Task, proc int) time.Duration {
			return w.Cost.Cost(t.Affinity, proc)
		},
		VertexCost: time.Microsecond,
		Policy:     core.NewAdaptive(),
	})
	if err != nil {
		return err
	}

	observer := obs.New(0)
	m, err := machine.New(machine.Config{
		Workers: params.Workers,
		Planner: planner,
		Obs:     observer,
	})
	if err != nil {
		return err
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		return err
	}

	fmt.Printf("run: %s\n\n", res)

	entries, evicted := observer.Journal().Export()
	fmt.Println("journal (first 25 entries):")
	if err := obs.WriteEntriesJSONL(os.Stdout, entries[:min(25, len(entries))], evicted); err != nil {
		return err
	}

	fmt.Println()
	fmt.Println("per-worker Gantt chart:")
	if err := obs.Gantt(os.Stdout, entries, params.Workers, 72); err != nil {
		return err
	}

	fmt.Println()
	fmt.Println("response-time distribution (executed tasks):")
	return res.Response.Render(os.Stdout)
}
