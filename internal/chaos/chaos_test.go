// Package chaos is the overload/chaos harness: it drives the full live
// cluster through seeded, randomized overload scenarios — arrival bursts
// against bounded queues, worker kills and delivery delays, mid-run
// graceful stops — and checks the system-level
// invariants that must hold no matter what the dice said:
//
//   - Honest accounting: every generated task lands in exactly one
//     terminal bucket (hit, purged, scheduled-missed, lost, shed), and the
//     shed reasons break the shed total down exactly.
//   - The conditional guarantee survives overload: no admitted-and-
//     scheduled task misses its deadline (ScheduledMissed == 0).
//   - Observability reconciles: every RunResult field mirrored into the
//     obs registry matches it exactly, the reason-labelled shed counters
//     sum to the shed total, and the journal books every count exactly as
//     often as the result says.
//   - Memory stays bounded: the ready queue's high-water mark never
//     exceeds the configured admission cap.
//
// Scenarios are deterministic functions of their seed, so a violation
// report names a seed that reproduces the configuration (the run itself is
// live and timing-dependent, but the invariants are timing-independent).
// The harness is test code only: `go test ./internal/chaos` runs it.
package chaos

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/db"
	"rtsads/internal/faultinject"
	"rtsads/internal/livecluster"
	"rtsads/internal/machine"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/rng"
	"rtsads/internal/workload"
)

// Scenario is one seeded overload configuration for a live-cluster run.
type Scenario struct {
	Seed    uint64
	Workers int
	Tasks   int
	SF      float64 // deadline laxity; kept loose so jitter cannot fake a miss
	Scale   float64 // virtual-time slowdown

	Admission  admission.Config
	SlackGuard time.Duration // deadline guard band for live planning
	Faults     string        // faultinject spec ("" = no faults)

	// StopAfter, when positive, requests a graceful stop that long (wall
	// clock) into the run, with StopGrace to drain.
	StopAfter time.Duration
	StopGrace time.Duration
}

// NewScenario derives a scenario deterministically from its seed. Every
// scenario bounds its ready queue, so the harness always exercises the
// shedding paths rather than occasionally testing a calm run; the worker
// queues need no bound of their own, since every delivered job fits its
// deadline (§4.3).
func NewScenario(seed uint64) Scenario {
	src := rng.New(seed)
	s := Scenario{
		Seed:    seed,
		Workers: src.IntRange(2, 4),
		Tasks:   src.IntRange(24, 48),
		SF:      3 + 3*src.Float64(),
		// Slow virtual time well down: on a loaded single-core box, timer
		// wake-ups can overshoot by milliseconds of wall time, and the
		// zero-miss invariant only means something when that jitter is small
		// against task slacks (1ms wall = 5µs virtual here).
		Scale: 200,
		// The guard band makes the zero-miss invariant honest on real
		// hardware: the planner never accepts a schedule with less slack
		// than this, so residual wall jitter (up to SlackGuard x Scale of
		// wall time) cannot turn an accepted schedule into a miss.
		SlackGuard: 25 * time.Microsecond,
	}
	s.Admission.QueueCap = src.IntRange(4, 12)
	s.Admission.Policy = admission.Policy(src.Intn(3))
	if src.Bool(0.6) {
		s.Admission.RejectHopeless = true
	}
	// Kills leave at least one survivor; delays are short in wall time (and
	// tiny in virtual time) so they perturb ordering without manufacturing
	// deadline misses.
	var faults []string
	for i, kills := 0, src.Intn(s.Workers); i < kills; i++ {
		faults = append(faults, fmt.Sprintf("kill=%d@%dus", i, src.IntRange(200, 2000)))
	}
	if src.Bool(0.4) {
		faults = append(faults, fmt.Sprintf("delay=%d:%d:%dus@0s",
			src.Intn(s.Workers), src.IntRange(1, 4), src.IntRange(100, 800)))
	}
	s.Faults = strings.Join(faults, ";")
	if src.Bool(0.25) {
		s.StopAfter = time.Duration(src.IntRange(20, 80)) * time.Millisecond
		s.StopGrace = 500 * time.Millisecond
	}
	return s
}

// Report is the outcome of one scenario: the run's metrics, the
// observability state it produced, and any invariant violations found.
type Report struct {
	Scenario   Scenario
	Result     *metrics.RunResult
	Snapshot   map[string]int64
	Journal    []obs.Entry
	Violations []string
}

// Run executes the scenario through a full live cluster (channel backend)
// and checks every harness invariant. A non-nil error means the scenario
// could not run at all; invariant failures land in Report.Violations.
func (s Scenario) Run() (*Report, error) {
	p := workload.DefaultParams(s.Workers)
	p.Seed = s.Seed | 1 // the workload generator wants a non-zero seed
	p.NumTransactions = s.Tasks
	p.SF = s.SF
	p.DB = db.Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 10, KeyAttr: 0}
	w, err := workload.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", s.Seed, err)
	}
	var plan *faultinject.Plan
	if s.Faults != "" {
		if plan, err = faultinject.Parse(s.Faults); err != nil {
			return nil, fmt.Errorf("chaos: seed %d: %w", s.Seed, err)
		}
	}
	o := obs.New(0) // default capacity holds every event these runs emit
	c, err := livecluster.New(livecluster.Config{
		Workload:   w,
		Scale:      s.Scale,
		Admission:  s.Admission,
		SlackGuard: s.SlackGuard,
		Faults:     plan,
		Obs:        o,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", s.Seed, err)
	}
	if s.StopAfter > 0 {
		timer := time.AfterFunc(s.StopAfter, func() { c.Stop(s.StopGrace) })
		defer timer.Stop()
	}
	res, err := c.Run()
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", s.Seed, err)
	}
	rep := &Report{
		Scenario: s,
		Result:   res,
		Snapshot: o.Registry().Snapshot(),
		Journal:  o.Journal().Snapshot(),
	}
	rep.Violations = s.check(res, rep.Snapshot, rep.Journal, o.Journal().Evicted())
	return rep, nil
}

// check evaluates the harness invariants against one finished run.
func (s Scenario) check(res *metrics.RunResult, snap map[string]int64, journal []obs.Entry, evicted int64) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// Every task in exactly one terminal bucket, shed reasons summing to
	// the shed total.
	if err := res.Balance(); err != nil {
		add("accounting: %v", err)
	}

	// The conditional guarantee: no admitted-and-scheduled task misses.
	if res.ScheduledMissed != 0 {
		add("%d scheduled tasks missed their deadlines; the admission-gated guarantee requires 0", res.ScheduledMissed)
	}

	// Registry counters mirror the result exactly, the reason-labelled
	// shed counters included.
	for name, want := range obs.Mirror(res) {
		if got := snap[name]; got != int64(want) {
			add("registry %s = %d, run result says %d", name, got, want)
		}
	}

	if evicted == 0 {
		// The journal entries that book a count add up to the result, so
		// the tracing plane cannot drift from the run accounting.
		mirror := obs.Mirror(res)
		for name, got := range machine.Journaled(journal) {
			if got != mirror[name] {
				add("journal books %d for %s, run result says %d", got, name, mirror[name])
			}
		}
		// Span completeness: every admitted task reaches exactly one
		// terminal span — the invariant the lifecycle exporters rely on.
		for _, msg := range obs.SpanViolations(journal) {
			add("span completeness: %s", msg)
		}
	}

	// Memory bounded: the ready queue never outgrew the admission cap, and
	// nothing is left in flight.
	if cap := s.Admission.QueueCap; cap > 0 && snap[obs.MetricBatchSizeMax] > int64(cap) {
		add("ready queue reached %d tasks, admission cap is %d", snap[obs.MetricBatchSizeMax], cap)
	}
	if snap[obs.MetricInflight] != 0 {
		add("%d tasks still in flight after the run", snap[obs.MetricInflight])
	}
	return v
}

// runScenario runs one seeded scenario with a hang guard: the one failure
// mode the harness itself must never exhibit is not terminating.
func runScenario(t *testing.T, seed uint64) *Report {
	t.Helper()
	type outcome struct {
		rep *Report
		err error
	}
	ch := make(chan outcome, 1)
	s := NewScenario(seed)
	go func() {
		rep, err := s.Run()
		ch <- outcome{rep, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.rep
	case <-time.After(45 * time.Second):
		t.Fatalf("seed %d: scenario hung", seed)
		return nil
	}
}

func TestScenarioDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := NewScenario(seed), NewScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: scenario generation not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if a.Admission.QueueCap == 0 {
			t.Errorf("seed %d: scenario leaves the ready queue unbounded", seed)
		}
	}
}

// TestChaosSmoke is the CI gate: twenty seeded overload scenarios through
// the full cluster, every harness invariant checked on each. It also
// asserts that across the batch the overload machinery demonstrably fired —
// a smoke run in which nothing was ever shed or re-routed would mean the
// harness stopped testing what it claims to.
func TestChaosSmoke(t *testing.T) {
	var shed, rerouted int
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runScenario(t, seed)
			for _, v := range rep.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if rep.Result.Total != rep.Scenario.Tasks {
				t.Errorf("seed %d: ran %d tasks, scenario specifies %d",
					seed, rep.Result.Total, rep.Scenario.Tasks)
			}
			shed += rep.Result.Shed
			rerouted += rep.Result.Rerouted
		})
	}
	if shed == 0 {
		t.Error("no scenario shed a single task; the admission paths went unexercised")
	}
	if rerouted == 0 {
		t.Error("no scenario re-routed a task; the failure paths went unexercised")
	}
	t.Logf("aggregate over 20 seeds: shed=%d rerouted=%d", shed, rerouted)
}

// TestChaosSoak is the opt-in long-running sweep: hundreds of seeds, with a
// coarse memory ceiling so an unbounded-growth regression (a leaked queue,
// an unbounded journal) fails loudly. Enable with RTSADS_SOAK=1, or set it
// to a scenario count.
func TestChaosSoak(t *testing.T) {
	env := os.Getenv("RTSADS_SOAK")
	if env == "" {
		t.Skip("soak disabled; set RTSADS_SOAK=1 (or a scenario count) to enable")
	}
	n := 200
	if v, err := strconv.Atoi(env); err == nil && v > 1 {
		n = v
	}
	var ms runtime.MemStats
	for seed := uint64(1); seed <= uint64(n); seed++ {
		rep := runScenario(t, seed)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if t.Failed() {
			t.Fatalf("stopping soak at seed %d after first violation", seed)
		}
		if seed%25 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > 512<<20 {
				t.Fatalf("heap grew to %d MiB after %d scenarios; memory is not bounded",
					ms.HeapAlloc>>20, seed)
			}
			t.Logf("seed %d/%d: heap %d MiB", seed, n, ms.HeapAlloc>>20)
		}
	}
}
