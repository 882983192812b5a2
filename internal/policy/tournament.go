package policy

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// TournamentConfig parameterises a policy tournament: every selected policy
// runs DefaultCorpus with the same seeds, so the comparison is paired and
// bit-for-bit reproducible.
type TournamentConfig struct {
	// Policies names the contenders (nil → every registered policy).
	Policies []string
	// Runs is the number of seeds per corpus cell (0 → 3; negative is an
	// error); cell i of run j uses seed BaseSeed+j.
	Runs int
	// BaseSeed seeds the first run (0 → 1).
	BaseSeed uint64
}

// The host's scheduling speed every tournament run is charged at: the
// experiments' calibration.
const (
	tournamentVertexCost = time.Microsecond
	tournamentPhaseCost  = 25 * time.Microsecond
)

func (c TournamentConfig) withDefaults() TournamentConfig {
	if c.Policies == nil {
		c.Policies = Default().Names()
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	return c
}

// DefaultCorpus returns the tournament's standard workload set: 8 workers,
// 400 transactions, at nominal (SF 1), tight (SF 0.5) and relaxed (SF 4)
// deadlines — deadline pressure is the corpus axis because it is what
// separates the policies.
func DefaultCorpus() []workload.Params {
	mk := func(sf float64) workload.Params {
		p := workload.DefaultParams(8)
		p.NumTransactions = 400
		p.SF = sf
		return p
	}
	return []workload.Params{mk(1), mk(0.5), mk(4)}
}

// CellResult is one (policy, workload) cell of the tournament, aggregated
// over the seed set.
type CellResult struct {
	SF           float64 `json:"sf"`
	Workers      int     `json:"workers"`
	Transactions int     `json:"transactions"`
	// Tasks is the total task count over all runs of the cell.
	Tasks int `json:"tasks"`
	// HitRatio is the cell's guarantee ratio: deadline hits over all tasks.
	HitRatio float64 `json:"hit_ratio"`
	// ShedMiss counts every task that did NOT meet its deadline — purged,
	// shed, lost, or scheduled-and-missed — over all runs.
	ShedMiss int `json:"shed_miss"`
	// SchedulingMS is the mean per-run scheduling cost in milliseconds —
	// the planning-latency axis.
	SchedulingMS float64 `json:"scheduling_ms"`
	Phases       int     `json:"phases"`
	Vertices     int     `json:"vertices"`
	DeadEnds     int     `json:"dead_ends"`
}

// Entry is one policy's tournament line: its cells plus the corpus-wide
// aggregate.
type Entry struct {
	Policy string `json:"policy"`
	// GuaranteeRatio is hits/total over the whole corpus.
	GuaranteeRatio float64 `json:"guarantee_ratio"`
	// ShedMiss is the corpus-wide count of tasks that missed.
	ShedMiss int `json:"shed_miss"`
	// SchedulingMS is the mean per-run scheduling cost in milliseconds.
	SchedulingMS float64 `json:"scheduling_ms"`
	// ScheduledMissed must be zero for every policy — the §4.3 guarantee.
	ScheduledMissed int          `json:"scheduled_missed"`
	Cells           []CellResult `json:"cells"`
	// Err records the first failure (construction, run, or reconciliation);
	// empty on success.
	Err string `json:"err,omitempty"`
}

// Report is a finished tournament.
type Report struct {
	Entries []Entry `json:"entries"`
	Runs    int     `json:"runs"`
	Seed    uint64  `json:"seed"`
}

// Render writes the report as an aligned table, best guarantee ratio
// first.
func (r *Report) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "policy\tguarantee\tshed+miss\tsched ms/run\tstatus\n")
	ordered := append([]Entry(nil), r.Entries...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].GuaranteeRatio > ordered[j].GuaranteeRatio
	})
	for _, e := range ordered {
		status := "ok"
		if e.Err != "" {
			status = "FAIL: " + e.Err
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%d\t%.2f\t%s\n",
			e.Policy, 100*e.GuaranteeRatio, e.ShedMiss, e.SchedulingMS, status)
	}
	return tw.Flush()
}

// WriteJSONL writes one JSON object per entry, in registry order — the
// machine-readable companion of Render.
func (r *Report) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Mirror publishes the report into an observability registry as
// rtsads_policy_* gauges, one labelled family per axis, so a -debug-addr
// scrape sees the tournament's outcome.
func (r *Report) Mirror(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, e := range r.Entries {
		reg.Gauge(fmt.Sprintf(obs.MetricPolicyGuaranteePattern, e.Policy)).Set(int64(1e6 * e.GuaranteeRatio))
		reg.Gauge(fmt.Sprintf(obs.MetricPolicyShedMissPattern, e.Policy)).Set(int64(e.ShedMiss))
		reg.Gauge(fmt.Sprintf(obs.MetricPolicySchedMicrosPattern, e.Policy)).Set(int64(1000 * e.SchedulingMS))
	}
}

// reconcile checks one run's terminal-bucket accounting: every generated
// task lands in exactly one fate, and nothing scheduled ever missed.
func reconcile(res *metrics.RunResult) error {
	if err := res.Balance(); err != nil {
		return err
	}
	if res.ScheduledMissed != 0 {
		return fmt.Errorf("%d scheduled tasks missed their deadline", res.ScheduledMissed)
	}
	return nil
}

// Tournament races the configured policies over the corpus. Every
// (policy, workload, seed) run is an independent pure function, so the
// cells fan out over the CPUs while the report stays deterministic. The
// report always covers every policy; the error (if any) is the first
// failure and the matching entry carries it too.
func Tournament(cfg TournamentConfig) (*Report, error) {
	if cfg.Runs < 0 {
		return nil, fmt.Errorf("policy: tournament Runs %d must not be negative", cfg.Runs)
	}
	cfg = cfg.withDefaults()
	corpus := DefaultCorpus()
	report := &Report{Runs: cfg.Runs, Seed: cfg.BaseSeed}
	report.Entries = make([]Entry, len(cfg.Policies))
	for i, name := range cfg.Policies {
		report.Entries[i] = Entry{Policy: name}
	}

	type cell struct{ policy, wl int }
	cells := make([]cell, 0, len(cfg.Policies)*len(corpus))
	for p := range cfg.Policies {
		for w := range corpus {
			cells = append(cells, cell{policy: p, wl: w})
		}
	}
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	var (
		wg   sync.WaitGroup
		next int64 = -1
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(cells) {
					return
				}
				c := cells[i]
				results[i], errs[i] = runCell(cfg, cfg.Policies[c.policy], corpus[c.wl])
			}
		}()
	}
	wg.Wait()

	var firstErr error
	for i, c := range cells {
		e := &report.Entries[c.policy]
		if errs[i] != nil {
			if e.Err == "" {
				e.Err = errs[i].Error()
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("policy %q: %w", e.Policy, errs[i])
			}
			continue
		}
		e.Cells = append(e.Cells, results[i])
	}
	for i := range report.Entries {
		e := &report.Entries[i]
		var tasks, hits int
		var schedMS float64
		for _, c := range e.Cells {
			tasks += c.Tasks
			hits += c.Tasks - c.ShedMiss
			e.ShedMiss += c.ShedMiss
			schedMS += c.SchedulingMS
		}
		if tasks > 0 {
			e.GuaranteeRatio = float64(hits) / float64(tasks)
		}
		if n := len(e.Cells); n > 0 {
			e.SchedulingMS = schedMS / float64(n)
		}
	}
	return report, firstErr
}

// runCell runs one policy over one workload for every seed and folds the
// runs into a CellResult.
func runCell(cfg TournamentConfig, name string, params workload.Params) (CellResult, error) {
	out := CellResult{SF: params.SF, Workers: params.Workers, Transactions: params.NumTransactions}
	var schedMS float64
	for i := 0; i < cfg.Runs; i++ {
		params.Seed = cfg.BaseSeed + uint64(i)
		w, err := workload.Generate(params)
		if err != nil {
			return out, err
		}
		cost := w.Cost
		opts := Options{
			Search: core.SearchConfig{
				Workers:    params.Workers,
				Comm:       func(t *task.Task, proc int) time.Duration { return cost.Cost(t.Affinity, proc) },
				VertexCost: tournamentVertexCost,
				PhaseCost:  tournamentPhaseCost,
				Policy:     core.NewAdaptive(),
			},
		}
		planner, err := Default().New(name, opts)
		if err != nil {
			return out, err
		}
		m, err := machine.New(machine.Config{Workers: params.Workers, Planner: planner})
		if err != nil {
			return out, err
		}
		res, err := m.Run(w.Tasks)
		if err != nil {
			return out, err
		}
		if err := reconcile(res); err != nil {
			return out, fmt.Errorf("sf=%g seed=%d: %w", params.SF, params.Seed, err)
		}
		out.Tasks += res.Total
		out.ShedMiss += res.Total - res.Hits
		schedMS += float64(res.SchedulingTime) / float64(time.Millisecond)
		out.Phases += res.Phases
		out.Vertices += res.VerticesGenerated
		out.DeadEnds += res.DeadEnds
	}
	out.SchedulingMS = schedMS / float64(cfg.Runs)
	if out.Tasks > 0 {
		out.HitRatio = float64(out.Tasks-out.ShedMiss) / float64(out.Tasks)
	}
	return out, nil
}
