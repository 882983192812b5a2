// Command rtsched regenerates the paper's evaluation: every figure and the
// ablation tables, printed as aligned text (and optionally CSV series).
//
// Usage:
//
//	rtsched -exp all                 # the full evaluation, paper methodology
//	rtsched -exp fig5                # Figure 5: hit ratio vs processors
//	rtsched -exp fig6 -csv out/      # Figure 6 plus CSV series
//	rtsched -exp quantum -runs 20    # quantum ablation with 20 runs/point
//
// Experiments: fig5, fig6, laxity, quantum, deadend, cost, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/core"
	"rtsads/internal/experiment"
	"rtsads/internal/machine"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/spec"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtsched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtsched", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: fig5, fig6, laxity, quantum, deadend, cost, reclaim, prune, poisson, mesh, placement, failure, host, heuristics, all")
	runs := fs.Int("runs", 10, "independent runs per data point (the paper uses 10)")
	seed := fs.Uint64("seed", 1, "base seed; run i uses seed+i")
	vertexCost := fs.Duration("vertexcost", time.Microsecond, "scheduling time charged per search vertex")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV series into (optional)")
	specPath := fs.String("spec", "", "run a custom JSON experiment spec instead of a built-in experiment")
	chromeOut := fs.String("chrometrace", "", "run one traced RT-SADS run (P=10, defaults) and write Chrome trace-event JSON to this file")
	taskTraceOut := fs.String("task-trace", "", "run one traced RT-SADS run (P=10, defaults) and write a task-per-track lifecycle Chrome trace to this file")
	plotFlag := fs.Bool("plot", false, "also draw each figure as an ASCII chart")
	dumpTasks := fs.String("dumptasks", "", "write the default workload's task set as JSON to this file and exit")
	runTasks := fs.String("runtasks", "", "run a task set previously written with -dumptasks (or an external trace) under -policy")
	taskWorkers := fs.Int("workers", 10, "working processors for -dumptasks/-runtasks")
	policyName := fs.String("policy", "RT-SADS", "scheduling policy for -runtasks; 'list' prints the registry and exits")
	tournamentFlag := fs.Bool("tournament", false, "race every registered policy over the workload corpus (-runs seeds per cell)")
	tournamentOut := fs.String("tournament-out", "", "also write the tournament report as JSONL to this file")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, expvar and pprof on this address while experiments run (e.g. :8077 or :0)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *policyName == "list" {
		return policy.Default().Describe(out)
	}
	if _, ok := policy.Default().Lookup(*policyName); !ok {
		return fmt.Errorf("unknown policy %q (run '-policy list' to see the registry)", *policyName)
	}

	// The debug endpoint profiles long experiment sweeps; single-machine
	// runs (-chrometrace, -runtasks) also feed it live scheduling metrics
	// through the same obs hooks the live cluster uses.
	var observer *obs.Observer
	if *debugAddr != "" {
		observer = obs.New(0)
		srv, err := obs.Serve(*debugAddr, observer)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "debug endpoint: %s (/metrics /debug/pprof /debug/vars)\n", srv.URL())
	}

	if *chromeOut != "" {
		return writeTracedRun(*chromeOut, "worker-track trace", obs.WriteChromeTrace, *seed, observer, out)
	}
	if *taskTraceOut != "" {
		return writeTracedRun(*taskTraceOut, "task-flow trace", func(w io.Writer, entries []obs.Entry, _ int64) error {
			return obs.WriteTaskFlowTrace(w, entries)
		}, *seed, observer, out)
	}
	if *dumpTasks != "" {
		return dumpTaskSet(*dumpTasks, *taskWorkers, *seed, out)
	}
	if *runTasks != "" {
		return runTaskSet(*runTasks, *taskWorkers, *policyName, observer, out)
	}
	if *tournamentFlag {
		return runTournament(*runs, *seed, *tournamentOut, observer, out)
	}

	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return fmt.Errorf("open spec: %w", err)
		}
		defer f.Close()
		sp, err := spec.Parse(f)
		if err != nil {
			return err
		}
		fig, err := sp.Run()
		if err != nil {
			return err
		}
		return (runner{out: out, csvDir: *csvDir, plot: *plotFlag}).emitFigure(fig)
	}

	rc := experiment.DefaultRunConfig()
	rc.Runs = *runs
	rc.BaseSeed = *seed
	rc.VertexCost = *vertexCost
	if err := rc.Validate(); err != nil {
		return err
	}

	r := runner{rc: rc, out: out, csvDir: *csvDir, plot: *plotFlag}
	switch *exp {
	case "fig5":
		return r.fig5()
	case "fig6":
		return r.fig6()
	case "laxity":
		return r.laxity()
	case "quantum":
		return r.quantum()
	case "deadend":
		return r.deadend()
	case "cost":
		return r.cost()
	case "reclaim":
		return r.reclaim()
	case "prune":
		return r.prune()
	case "poisson":
		return r.poisson()
	case "mesh":
		return r.mesh()
	case "placement":
		return r.placement()
	case "failure":
		return r.failure()
	case "host":
		return r.host()
	case "heuristics":
		return r.heuristics()
	case "all":
		for _, f := range []func() error{r.fig5, r.fig6, r.laxity, r.quantum, r.deadend, r.cost, r.reclaim, r.prune, r.poisson, r.mesh, r.placement, r.failure, r.host, r.heuristics} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (want fig5, fig6, laxity, quantum, deadend, cost, reclaim, prune, poisson, mesh, placement, failure, host, heuristics or all)", *exp)
	}
}

type runner struct {
	rc     experiment.RunConfig
	out    io.Writer
	csvDir string
	plot   bool
}

func (r runner) emitFigure(fig *experiment.Figure) error {
	if err := fig.Render(r.out); err != nil {
		return err
	}
	if r.plot {
		if err := fig.RenderPlot(r.out); err != nil {
			return err
		}
		fmt.Fprintln(r.out)
	}
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	path := filepath.Join(r.csvDir, fig.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := fig.RenderCSV(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(r.out, "# wrote %s\n\n", path)
	return nil
}

func (r runner) fig5() error {
	fig, err := experiment.Fig5(r.rc)
	if err != nil {
		return err
	}
	return r.emitFigure(fig)
}

func (r runner) fig6() error {
	fig, err := experiment.Fig6(r.rc)
	if err != nil {
		return err
	}
	return r.emitFigure(fig)
}

func (r runner) laxity() error {
	figs, err := experiment.Laxity(r.rc)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		if err := r.emitFigure(fig); err != nil {
			return err
		}
	}
	return nil
}

func (r runner) quantum() error {
	rows, err := experiment.QuantumAblation(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderQuantumRows(r.out, rows)
}

func (r runner) deadend() error {
	rows, err := experiment.DeadEnds(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderDeadEndRows(r.out, rows)
}

func (r runner) cost() error {
	rows, err := experiment.SchedulingCost(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderCostRows(r.out, rows)
}

func (r runner) reclaim() error {
	rows, err := experiment.Reclaiming(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderReclaimRows(r.out, rows)
}

func (r runner) prune() error {
	rows, err := experiment.Pruning(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderPruneRows(r.out, rows)
}

func (r runner) poisson() error {
	fig, err := experiment.PoissonLoad(r.rc)
	if err != nil {
		return err
	}
	return r.emitFigure(fig)
}

// writeTracedRun runs one default RT-SADS run (P=10) against a journaling
// observer and writes one view of its journal to path: the worker-track
// Chrome trace (-chrometrace) or the task-per-track lifecycle trace
// (-task-trace). Both load in chrome://tracing and Perfetto.
func writeTracedRun(path, name string, view func(io.Writer, []obs.Entry, int64) error, seed uint64, observer *obs.Observer, out io.Writer) error {
	if observer == nil {
		observer = obs.New(0)
	}
	p := workload.DefaultParams(10)
	p.Seed = seed
	w, err := workload.Generate(p)
	if err != nil {
		return err
	}
	planner, err := experiment.NewPlanner(experiment.RTSADS, w, experiment.DefaultRunConfig())
	if err != nil {
		return err
	}
	m, err := machine.New(machine.Config{Workers: p.Workers, Planner: planner, Obs: observer})
	if err != nil {
		return err
	}
	res, err := m.Run(w.Tasks)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	entries, evicted := observer.Journal().Export()
	if err := view(f, entries, evicted); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(out, "run: %s\nwrote %s (%s, %d journal entries, %d evicted) — open in chrome://tracing or Perfetto\n",
		res, path, name, len(entries), evicted)
	return nil
}

func (r runner) failure() error {
	rows, err := experiment.Failures(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderFailureRows(r.out, rows)
}

// dumpTaskSet generates the default workload for the given machine size
// and writes its task set in the JSON interchange format.
func dumpTaskSet(path string, workers int, seed uint64, out io.Writer) error {
	p := workload.DefaultParams(workers)
	p.Seed = seed
	w, err := workload.Generate(p)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := workload.SaveTasks(f, w.Tasks); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(out, "wrote %d tasks to %s\n", len(w.Tasks), path)
	return nil
}

// runTaskSet replays an imported task set under the selected policy on the
// deterministic machine — the bring-your-own-trace path.
func runTaskSet(path string, workers int, policyName string, observer *obs.Observer, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	tasks, err := workload.LoadTasks(f)
	if err != nil {
		return err
	}
	model := affinity.CostModel{Remote: 2 * time.Millisecond}
	planner, err := policy.Default().New(policyName, policy.Options{Search: core.SearchConfig{
		Workers: workers,
		Comm: func(t *task.Task, proc int) time.Duration {
			return model.Cost(t.Affinity, proc)
		},
		VertexCost: time.Microsecond,
		PhaseCost:  25 * time.Microsecond,
		Policy:     core.NewAdaptive(),
	}})
	if err != nil {
		return err
	}
	m, err := machine.New(machine.Config{Workers: workers, Planner: planner, Obs: observer})
	if err != nil {
		return err
	}
	res, err := m.Run(tasks)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", res)
	return nil
}

// runTournament races every registered policy over the standard corpus and
// renders the table; the JSONL mirror and the /metrics gauges are for
// machines.
func runTournament(runs int, seed uint64, jsonlPath string, observer *obs.Observer, out io.Writer) error {
	report, err := policy.Tournament(policy.TournamentConfig{Runs: runs, BaseSeed: seed})
	if report == nil {
		return err
	}
	if rerr := report.Render(out); rerr != nil && err == nil {
		err = rerr
	}
	if jsonlPath != "" {
		f, ferr := os.Create(jsonlPath)
		if ferr != nil {
			return fmt.Errorf("create %s: %w", jsonlPath, ferr)
		}
		defer f.Close()
		if werr := report.WriteJSONL(f); werr != nil && err == nil {
			err = fmt.Errorf("write %s: %w", jsonlPath, werr)
		}
		fmt.Fprintf(out, "# wrote %s\n", jsonlPath)
	}
	if observer != nil {
		report.Mirror(observer.Registry())
	}
	return err
}

func (r runner) heuristics() error {
	rows, err := experiment.Heuristics(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderHeuristicRows(r.out, rows)
}

func (r runner) host() error {
	rows, err := experiment.HostArchitecture(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderHostRows(r.out, rows)
}

func (r runner) placement() error {
	rows, err := experiment.Placement(r.rc)
	if err != nil {
		return err
	}
	return experiment.RenderPlacementRows(r.out, rows)
}

func (r runner) mesh() error {
	// 11 nodes: the 10 workers plus the host, 350KB transfers — the size
	// whose serialisation matches the experiments' remote cost C = 2ms.
	res, err := experiment.MeshCheck(11, 350_000, r.rc.BaseSeed)
	if err != nil {
		return err
	}
	return res.Render(r.out)
}
