// Command bench is rtbench, the one benchmark of the system that ships:
// live and simulated end-to-end metrics, a per-layer ladder, and a traced
// run. See README.md for every metric and workload, and BENCHMARK.json for
// the contract the PR driver holds it to.
//
// One workload, as the driver runs it (one JSON object on the last line):
//
//	bench/run.sh --workload live-steady --seed 1 --seconds 20 --trace 0
//
// The whole suite, every metric by name with its unit:
//
//	bench/run.sh -seed 1
//
// Self-agreement and comparison under the BENCHMARK.json bounds:
//
//	bench/run.sh -seed 1 -sets 2 -runs 5
//	bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// report collects one run of one workload: metric values, the task
// counts behind failed_share, correctness failures and diagnostics.
type report struct {
	workload  string
	traced    bool
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	log       io.Writer
}

func newReport(workload string, traced bool, log io.Writer) *report {
	return &report{workload: workload, traced: traced, values: make(map[string]float64), log: log}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// note prints a diagnostic line (sample counts, per-repetition numbers).
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintf(r.log, "# FAIL %s\n", msg)
}

// defs is the metric table this run must fill.
func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// finish checks that every declared metric is present and finite. A
// per-layer metric a workload does not set is 0: the layer is not on its
// path. An end-to-end metric must be there and must not be 0.
func (r *report) finish() error {
	for _, d := range r.defs() {
		v, ok := r.values[d.name]
		if !ok && r.traced {
			r.values[d.name], v, ok = 0, 0, true
		}
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
		case !r.traced && v == 0:
			return fmt.Errorf("%s: end-to-end metric %s is 0", r.workload, d.name)
		}
	}
	if r.attempted < 1 {
		return fmt.Errorf("%s: nothing attempted", r.workload)
	}
	return nil
}

func (r *report) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// contractLine is the last line of standard output in single-workload mode.
func (r *report) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]mv)}
	for _, d := range r.defs() {
		out.Metrics[d.name] = mv{r.values[d.name], d.unit}
	}
	return json.Marshal(out)
}

// options are the flags shared by every mode.
type options struct {
	seed    uint64
	seconds float64
	jcap    int
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(name string, traced bool, opt options, log io.Writer) (*report, error) {
	rep := newReport(name, traced, log)
	var err error
	switch {
	case name == wlSim && traced:
		err = tracedSim(opt.seed, opt.seconds, rep)
	case name == wlSim:
		err = runSimUntraced(opt, rep)
	default:
		err = runLive(name, traced, opt, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := rep.finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

// timeSetups repeats set-up setupReps times and returns the fastest time
// and the last product; discard releases the others. The fastest, not the
// median — here and for sim-paper's tasks_per_s — because both time a fixed
// amount of work on a shared host, where other tenants only ever slow a
// repetition down, for minutes at a time and in a bad spell more than half
// of the repetitions: over 24 runs the median pass of sim-paper ranged
// 1.78M–2.84M tasks/s (quartile spread 33 %), the fastest pass 2.47M–3.02M
// (4 %). README.md, "How the bounds were measured".
func timeSetups[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		// Collect first, then keep the collector out of the timed region:
		// whether a cycle starts inside a 5-15 ms set-up is a matter of a
		// few bytes of heap, and made the fastest of fifteen set-ups of
		// live-steady read 8.3-15.4 ms over ten seeds against 7.5-9.0 ms
		// without it.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		p, err := build()
		took := time.Since(t0)
		debug.SetGCPercent(gc)
		if err != nil {
			return last, 0, err
		}
		times = append(times, took.Seconds())
		last = p
	}
	return last, slices.Min(times), nil
}

func runSimUntraced(opt options, rep *report) error {
	p, setup, err := timeSetups(func() (*simPrep, error) { return prepareSim(opt.seed, simInstances, nil) }, nil)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	return untracedSim(p, opt.seconds, rep)
}

func runLive(name string, traced bool, opt options, rep *report) error {
	p, setup, err := timeSetups(
		func() (*livePrep, error) { return prepareLive(name, opt) },
		(*livePrep).close)
	if err != nil {
		return err
	}
	defer p.close()
	if traced {
		return tracedLive(p, opt.seconds, rep)
	}
	rep.set("setup_s", setup)
	return untracedLive(p, rep)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print the driver's JSON line: "+fmt.Sprint(workloadNames)+" (default: the whole suite)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same task lists")
	seconds := fs.Float64("seconds", 20, "length of the timed regions of one run, in seconds")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run and ladder rungs, per-layer metrics")
	out := fs.String("out", "", "suite mode: write every run's values to this JSON file (the input of -compare)")
	sets := fs.Int("sets", 1, "suite mode: measure this many sets on the same code and hold set 2.. against set 1 under the BENCHMARK.json bounds")
	runs := fs.Int("runs", 1, "suite mode: untraced runs per workload in each set (median and quartiles are over these)")
	seedStep := fs.Uint64("seedstep", 0, "suite mode: run i uses seed + i×seedstep (1 reproduces the driver's ten-seed spread check)")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: base first, change second")
	history := fs.String("history", "bench/history.jsonl", "suite mode: append one row per invocation to this file (empty = do not)")
	jcap := fs.Int("jcap", 0, "override the journal ring capacity of the live workloads (65536 on live-tcp-steady reproduces the known defect)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One process, at most two cores: the sizing the bounds were measured
	// with (ISSUE 14).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	opt := options{seed: *seed, seconds: *seconds, jcap: *jcap}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds %v must be positive", *seconds))
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files: base change"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload != "":
		if !slices.Contains(workloadNames, *workload) {
			return fail(fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames))
		}
		rep, err := runWorkload(*workload, *trace == 1, opt, stdout)
		if err != nil {
			return fail(err)
		}
		line, err := rep.contractLine()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	default:
		return runSuite(suiteOptions{
			options: opt, sets: *sets, runs: *runs, seedStep: *seedStep,
			out: *out, history: *history,
		}, stdout, stderr)
	}
}
