package core

import (
	"errors"
	"testing"
	"time"

	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// scriptPlanner returns pre-scripted phase results and records how many
// phases it planned.
type scriptPlanner struct {
	name    string
	results []PhaseResult
	err     error
	calls   int
}

func (s *scriptPlanner) Name() string { return s.name }

func (s *scriptPlanner) PlanPhase(PhaseInput) (PhaseResult, error) {
	if s.err != nil {
		return PhaseResult{}, s.err
	}
	r := s.results[s.calls%len(s.results)]
	s.calls++
	return r, nil
}

func expired() PhaseResult { return PhaseResult{Stats: search.Stats{Expired: true}} }
func clean() PhaseResult   { return PhaseResult{Stats: search.Stats{Leaf: true}} }
func degIn() PhaseInput    { return PhaseInput{Now: 0} }

func mustDegrading(t *testing.T, p, f Planner, cfg DegradeConfig) *Degrading {
	t.Helper()
	d, err := NewDegrading(p, f, cfg)
	if err != nil {
		t.Fatalf("NewDegrading: %v", err)
	}
	return d
}

// plan runs one phase and returns the controller's step.
func plan(t *testing.T, d *Degrading, in PhaseInput) DegradeStep {
	t.Helper()
	res, err := d.PlanPhase(in)
	if err != nil {
		t.Fatalf("PlanPhase: %v", err)
	}
	return res.Degrade
}

// tally counts steps the way the host books them.
type tally struct{ degradations, recoveries, degradedPhases int }

func (c *tally) add(s DegradeStep) DegradeStep {
	if s.Fallback {
		c.degradedPhases++
	}
	switch {
	case s.Degraded && !s.Fallback:
		c.degradations++
	case s.Fallback && !s.Degraded:
		c.recoveries++
	}
	return s
}

func TestDegradingValidation(t *testing.T) {
	p := &scriptPlanner{name: "p", results: []PhaseResult{clean()}}
	if _, err := NewDegrading(nil, p, DegradeConfig{}); err == nil {
		t.Error("nil primary accepted")
	}
	if _, err := NewDegrading(p, nil, DegradeConfig{}); err == nil {
		t.Error("nil fallback accepted")
	}
	if _, err := NewDegrading(p, p, DegradeConfig{SlackFraction: 1.5}); err == nil {
		t.Error("SlackFraction > 1 accepted")
	}
	d := mustDegrading(t, p, p, DegradeConfig{})
	if d.Name() != "p+degrade" {
		t.Errorf("Name = %q", d.Name())
	}
}

// After N consecutive expired phases the controller switches to the
// fallback; a clean streak of Recover switches back. Interleaved clean
// phases reset the bad streak (consecutive, not cumulative).
func TestDegradeAndRecover(t *testing.T) {
	p := &scriptPlanner{name: "p", results: []PhaseResult{expired()}}
	f := &scriptPlanner{name: "f", results: []PhaseResult{clean()}}
	d := mustDegrading(t, p, f, DegradeConfig{After: 3, Recover: 2})
	var c tally

	for i := 0; i < 2; i++ {
		if c.add(plan(t, d, degIn())).Degraded {
			t.Fatalf("degraded after %d bad phases (After=3)", i+1)
		}
	}
	// A clean phase resets the streak.
	p.results = []PhaseResult{clean()}
	c.add(plan(t, d, degIn()))
	p.results = []PhaseResult{expired()}
	for i := 0; i < 2; i++ {
		if c.add(plan(t, d, degIn())).Degraded {
			t.Fatalf("streak did not reset: degraded after clean + %d bad", i+1)
		}
	}
	// Third consecutive bad.
	if s := c.add(plan(t, d, degIn())); !s.Degraded || s.Fallback {
		t.Fatalf("third consecutive bad phase stepped %+v, want a switch into degraded mode", s)
	}
	if c.degradations != 1 || c.recoveries != 0 {
		t.Fatalf("counts after degrade: %d/%d, want 1/0", c.degradations, c.recoveries)
	}

	// Fallback plans the next phases; two clean ones recover.
	fBefore := f.calls
	s := c.add(plan(t, d, degIn()))
	if f.calls != fBefore+1 || !s.Fallback {
		t.Fatal("fallback did not plan while degraded")
	}
	if !s.Degraded {
		t.Fatal("recovered after a single clean phase (Recover=2)")
	}
	if s := c.add(plan(t, d, degIn())); s.Degraded || !s.Fallback {
		t.Fatalf("second clean fallback phase stepped %+v, want a recovery", s)
	}
	if c.degradations != 1 || c.recoveries != 1 {
		t.Fatalf("counts after recover: %d/%d, want 1/1", c.degradations, c.recoveries)
	}
	if c.degradedPhases != 2 {
		t.Fatalf("degraded phases = %d, want 2", c.degradedPhases)
	}
	// Back on the primary.
	pBefore := p.calls
	p.results = []PhaseResult{clean()}
	if s := plan(t, d, degIn()); p.calls != pBefore+1 || s.Fallback {
		t.Fatal("primary did not resume after recovery")
	}
}

// A bad fallback phase resets the clean streak: recovery requires Recover
// *consecutive* clean phases.
func TestRecoveryHysteresis(t *testing.T) {
	p := &scriptPlanner{name: "p", results: []PhaseResult{expired()}}
	f := &scriptPlanner{name: "f", results: []PhaseResult{clean()}}
	d := mustDegrading(t, p, f, DegradeConfig{After: 1, Recover: 2})

	if !plan(t, d, degIn()).Degraded {
		t.Fatal("not degraded with After=1")
	}
	plan(t, d, degIn()) // clean 1
	f.results = []PhaseResult{expired()}
	plan(t, d, degIn()) // bad: resets streak
	f.results = []PhaseResult{clean()}
	if !plan(t, d, degIn()).Degraded { // clean 1 again
		t.Fatal("recovered despite interrupted clean streak")
	}
	if plan(t, d, degIn()).Degraded { // clean 2
		t.Fatal("not recovered after 2 consecutive clean phases")
	}
}

// The latency criterion: a phase whose scheduling time exceeds
// SlackFraction × Min_Slack counts as bad even without quantum expiry.
func TestSlackFractionCriterion(t *testing.T) {
	slow := PhaseResult{Used: 60 * time.Microsecond, Stats: search.Stats{Leaf: true}}
	p := &scriptPlanner{name: "p", results: []PhaseResult{slow}}
	f := &scriptPlanner{name: "f", results: []PhaseResult{clean()}}
	d := mustDegrading(t, p, f, DegradeConfig{After: 1, SlackFraction: 0.5})

	// Min_Slack = 100µs: Used 60µs > 50µs → bad.
	batch := []*task.Task{{ID: 1, Proc: time.Millisecond, Deadline: simtime.Instant(int64(time.Millisecond + 100*time.Microsecond))}}
	if !plan(t, d, PhaseInput{Now: 0, Batch: batch}).Degraded {
		t.Fatal("latency over the slack fraction did not degrade")
	}

	// Same Used with plentiful slack is fine.
	d2 := mustDegrading(t, p, f, DegradeConfig{After: 1, SlackFraction: 0.5})
	roomy := []*task.Task{{ID: 1, Proc: time.Millisecond, Deadline: simtime.Instant(int64(time.Second))}}
	if plan(t, d2, PhaseInput{Now: 0, Batch: roomy}).Degraded {
		t.Fatal("degraded despite latency within the slack fraction")
	}

	// Zero min-slack (or empty batch) must not divide the world into bad
	// phases: the criterion is skipped.
	d3 := mustDegrading(t, p, f, DegradeConfig{After: 1, SlackFraction: 0.5})
	if plan(t, d3, PhaseInput{Now: 0}).Degraded {
		t.Fatal("empty batch judged bad by the latency criterion")
	}
}

// Planner errors pass through without advancing the state machine.
func TestDegradingErrorPassthrough(t *testing.T) {
	boom := errors.New("boom")
	p := &scriptPlanner{name: "p", err: boom}
	f := &scriptPlanner{name: "f", results: []PhaseResult{clean()}}
	d := mustDegrading(t, p, f, DegradeConfig{After: 1})
	if _, err := d.PlanPhase(degIn()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if d.degraded || d.badStreak != 0 {
		t.Fatal("error advanced the state machine")
	}
}

// An expired phase that scheduled tasks is clean: a quantum sized in work
// cuts a deep batch short by design, and the phase still delivered.
func TestExpiredPhaseThatScheduledIsClean(t *testing.T) {
	cut := expired()
	cut.Schedule = []search.Assignment{{Task: &task.Task{ID: 1}}}
	p := &scriptPlanner{name: "p", results: []PhaseResult{cut}}
	f := &scriptPlanner{name: "f", results: []PhaseResult{clean()}}
	d := mustDegrading(t, p, f, DegradeConfig{After: 1})
	for i := 0; i < 5; i++ {
		if s := plan(t, d, degIn()); s.Degraded || s.Fallback {
			t.Fatalf("phase %d stepped %+v: an expired phase that scheduled a task judged bad", i, s)
		}
	}
}

// End-to-end with the real planners: a search primary whose host stalls
// through every quantum degrades to EDF-greedy and the fallback still only
// emits deadline-safe assignments.
func TestDegradingWithRealPlanners(t *testing.T) {
	comm := func(t *task.Task, proc int) time.Duration { return 0 }
	mk := func(policy QuantumPolicy) SearchConfig {
		return SearchConfig{
			Workers:    2,
			Comm:       comm,
			VertexCost: 10 * time.Microsecond,
			Policy:     policy,
		}
	}
	// A host whose clock reads past the quantum before the first expansion:
	// every phase expires having scheduled nothing.
	stalled := mk(Fixed{D: 20 * time.Microsecond})
	stalled.Clock = func() time.Duration { return time.Hour }
	primary, err := NewRTSADS(stalled)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := NewEDFGreedy(mk(Fixed{D: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	d := mustDegrading(t, primary, fallback, DegradeConfig{After: 2, Recover: 2})

	batch := make([]*task.Task, 12)
	for i := range batch {
		batch[i] = &task.Task{
			ID:       task.ID(i + 1),
			Proc:     time.Millisecond,
			Deadline: simtime.Instant(int64(time.Second)),
		}
	}
	loads := []time.Duration{0, 0}
	in := func() PhaseInput {
		return PhaseInput{Now: 0, Batch: append([]*task.Task(nil), batch...), Loads: loads}
	}
	plan(t, d, in())
	if !plan(t, d, in()).Degraded {
		t.Fatal("starved search planner did not degrade")
	}
	res, err := d.PlanPhase(in())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) == 0 {
		t.Fatal("degraded phase scheduled nothing despite a roomy greedy quantum")
	}
	phaseEnd := simtime.Instant(0).Add(res.Quantum)
	for _, a := range res.Schedule {
		if phaseEnd.Add(a.EndOffset).After(a.Task.Deadline) {
			t.Fatalf("fallback emitted a deadline-unsafe assignment: task %d", a.Task.ID)
		}
	}
}
