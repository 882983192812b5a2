package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"rtsads/internal/stats"
)

// suiteOptions configure the whole-suite mode.
type suiteOptions struct {
	options
	sets, runs int
	seedStep   uint64
	out        string
	history    string
}

// machineInfo is recorded with every result, because a number from this
// benchmark means nothing without the machine it was measured on.
type machineInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	Seed       uint64  `json:"seed"`
	SeedStep   uint64  `json:"seed_step"`
	Seconds    float64 `json:"seconds"`
}

func readMachineInfo(opt suiteOptions) machineInfo {
	mi := machineInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
		Date: time.Now().UTC().Format(time.RFC3339), Seed: opt.seed, SeedStep: opt.seedStep, Seconds: opt.seconds,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				mi.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git (the driver's) simply has no commit to name.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		mi.Commit = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			mi.Commit += "+dirty"
		}
	}
	return mi
}

// row is one (workload, metric) cell of a set: the value of every run, and
// their median and quartiles.
type row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
}

// resultSet is what -out writes and -compare reads: one set of runs.
type resultSet struct {
	Machine   machineInfo `json:"machine"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	EndToEnd  []row       `json:"end_to_end"`
	PerLayer  []row       `json:"per_layer"`
}

func summarize(workload string, defs []metricDef, reps []*report) []row {
	rows := make([]row, 0, len(defs))
	for _, d := range defs {
		r := row{Workload: workload, Metric: d.name, Unit: d.unit}
		for _, rep := range reps {
			r.Values = append(r.Values, rep.values[d.name])
		}
		r.Median = stats.Median(r.Values)
		r.Q1, r.Q3 = quartiles(r.Values)
		rows = append(rows, r)
	}
	return rows
}

// measureSet runs every workload: runs untraced runs for the end-to-end
// metrics, then one traced run for the per-layer metrics.
func measureSet(opt suiteOptions, log io.Writer) (*resultSet, error) {
	set := &resultSet{Machine: readMachineInfo(opt)}
	for _, name := range workloadNames {
		var reps []*report
		for i := 0; i < opt.runs; i++ {
			o := opt.options
			o.seed += uint64(i) * opt.seedStep
			rep, err := runWorkload(name, false, o, log)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		traced, err := runWorkload(name, true, opt.options, log)
		if err != nil {
			return nil, err
		}
		for _, rep := range append(reps, traced) {
			set.Attempted += rep.attempted
			set.Failed += rep.failed
			set.Failures = append(set.Failures, rep.failures...)
		}
		set.EndToEnd = append(set.EndToEnd, summarize(name, endToEnd, reps)...)
		set.PerLayer = append(set.PerLayer, summarize(name, perLayer, []*report{traced})...)
	}
	return set, nil
}

// print writes every metric by name with its unit.
func (s *resultSet) print(w io.Writer) {
	m := s.Machine
	fmt.Fprintf(w, "rtbench  seed %d  %gs per run  nproc %d  gomaxprocs %d  %s  %s  commit %s\n",
		m.Seed, m.Seconds, m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.Commit)
	section := func(title string, rows []row) {
		fmt.Fprintf(w, "\n%s\n%-18s %-40s %16s %16s %16s  %s\n", title, "workload", "metric", "median", "q1", "q3", "unit")
		for _, r := range rows {
			fmt.Fprintf(w, "%-18s %-40s %16.6g %16.6g %16.6g  %s\n", r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Unit)
		}
	}
	section(fmt.Sprintf("end-to-end (untraced, %d run(s) per workload)", len(s.EndToEnd[0].Values)), s.EndToEnd)
	section("per-layer (traced run and ladder rungs)", s.PerLayer)
	fmt.Fprintf(w, "\nfailed_share %d / %d tasks\n", s.Failed, s.Attempted)
	for _, f := range s.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// historyRow is one line of history.jsonl.
type historyRow struct {
	machineInfo
	Runs      int                              `json:"runs"`
	Failed    int                              `json:"failed"`
	Attempted int                              `json:"attempted"`
	EndToEnd  map[string]map[string][3]float64 `json:"end_to_end"` // workload → metric → median, q1, q3
}

func appendHistory(path string, s *resultSet) error {
	h := historyRow{machineInfo: s.Machine, Runs: len(s.EndToEnd[0].Values), Failed: s.Failed,
		Attempted: s.Attempted, EndToEnd: make(map[string]map[string][3]float64)}
	for _, r := range s.EndToEnd {
		if h.EndToEnd[r.Workload] == nil {
			h.EndToEnd[r.Workload] = make(map[string][3]float64)
		}
		h.EndToEnd[r.Workload][r.Metric] = [3]float64{r.Median, r.Q1, r.Q3}
	}
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSuite is the default mode: every workload, untraced then traced,
// every metric printed; with -sets > 1 the later sets are held against the
// first under the benchmark's own bounds.
func runSuite(opt suiteOptions, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if opt.sets < 1 || opt.runs < 1 {
		return fail(fmt.Errorf("-sets and -runs must be at least 1"))
	}
	var spec *benchSpec
	if opt.sets > 1 {
		var err error
		if spec, err = loadSpec(specPath); err != nil {
			return fail(err)
		}
	}
	code := 0
	var first *resultSet
	for i := 0; i < opt.sets; i++ {
		set, err := measureSet(opt, stdout)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\n== set %d of %d ==\n", i+1, opt.sets)
		set.print(stdout)
		if set.Failed > 0 || len(set.Failures) > 0 {
			code = 1
		}
		if opt.history != "" {
			if err := appendHistory(opt.history, set); err != nil {
				return fail(fmt.Errorf("history: %w", err))
			}
		}
		if opt.out != "" {
			path := opt.out
			if i > 0 {
				path = fmt.Sprintf("%s.set%d", opt.out, i+1)
			}
			if err := writeJSON(path, set); err != nil {
				return fail(err)
			}
		}
		if first == nil {
			first = set
			continue
		}
		fmt.Fprintf(stdout, "\n== set %d against set 1 ==\n", i+1)
		if !compareSets(spec, first, set, stdout) {
			code = 1
		}
	}
	return code
}
