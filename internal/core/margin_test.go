package core_test

import (
	"fmt"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/core"
	"rtsads/internal/rng"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// shadowGuard is the reference implementation of a planning margin: it
// hands its planner shadow copies of the batch with every deadline shrunk by
// the band, and maps the schedule back to the real tasks.
type shadowGuard struct {
	core.Planner
	band time.Duration
}

func (g shadowGuard) PlanPhase(in core.PhaseInput) (core.PhaseResult, error) {
	orig := make(map[task.ID]*task.Task, len(in.Batch))
	shadow := make([]task.Task, len(in.Batch))
	guarded := make([]*task.Task, len(in.Batch))
	for i, t := range in.Batch {
		orig[t.ID] = t
		shadow[i] = *t
		shadow[i].Deadline = t.Deadline.Add(-g.band)
		guarded[i] = &shadow[i]
	}
	in.Batch = guarded
	out, err := g.Planner.PlanPhase(in)
	for i := range out.Schedule {
		out.Schedule[i].Task = orig[out.Schedule[i].Task.ID]
	}
	return out, err
}

const marginWorkers = 4

// tightRoomy is the first phase of every sequence: the tight task has 2µs of
// slack once a 50µs phase ends (it finishes at 150µs + its 2µs), the roomy
// one a second.
func tightRoomy() (in core.PhaseInput, tight, roomy *task.Task) {
	all := affinity.Range(0, marginWorkers)
	tight = &task.Task{ID: 1, Proc: 100 * time.Microsecond, Deadline: simtime.Instant(152 * time.Microsecond), Affinity: all}
	roomy = &task.Task{ID: 2, Proc: 100 * time.Microsecond, Deadline: simtime.Instant(time.Second), Affinity: all}
	return core.PhaseInput{Batch: []*task.Task{tight, roomy}, Loads: make([]time.Duration, marginWorkers)}, tight, roomy
}

// marginPhases draws a sequence of phase inputs: batches with hopeless,
// tight and loose tasks, some deadlines Never, and every fourth phase with a
// crashed worker's search.Unreachable load.
func marginPhases(seed uint64, n int) []core.PhaseInput {
	r := rng.New(seed)
	phases := make([]core.PhaseInput, n)
	for p := range phases {
		now := simtime.Instant(r.Intn(10_000)) * simtime.Instant(time.Microsecond)
		batch := make([]*task.Task, r.IntRange(1, 30))
		for i := range batch {
			proc := time.Duration(r.IntRange(10, 500)) * time.Microsecond
			deadline := simtime.Never
			if !r.Bool(0.15) {
				deadline = now.Add(proc + time.Duration(r.IntRange(-50, 1500))*time.Microsecond)
			}
			aff := affinity.NewSet(r.Intn(marginWorkers))
			if r.Bool(0.5) {
				aff = aff.Add(r.Intn(marginWorkers))
			}
			batch[i] = &task.Task{ID: task.ID(i), Arrival: now, Proc: proc, Deadline: deadline, Affinity: aff}
		}
		loads := make([]time.Duration, marginWorkers)
		for k := range loads {
			loads[k] = time.Duration(r.Intn(800)) * time.Microsecond
		}
		if p%4 == 1 {
			loads[r.Intn(marginWorkers)] = search.Unreachable
		}
		phases[p] = core.PhaseInput{Now: now, Batch: batch, Loads: loads}
	}
	return phases
}

// TestMarginMatchesShadow: a planner handed PhaseInput.Margin plans exactly
// as it does over deadline-shrunk shadow tasks — the same quantum, time
// used, search counters and schedule — for every planner, over
// a sequence of phases that carries each planner's state forward. The margin
// binds: a task with less slack than the margin is not scheduled, and the
// schedule holds the real tasks.
func TestMarginMatchesShadow(t *testing.T) {
	remote := affinity.CostModel{Remote: 50 * time.Microsecond}
	planners := []struct {
		name string
		mk   func(core.SearchConfig) (core.Planner, error)
	}{
		{"RT-SADS", core.NewRTSADS},
		{"D-COLS", core.NewDCOLS},
		{"EDF-greedy", core.NewEDFGreedy},
		{"myopic", func(c core.SearchConfig) (core.Planner, error) { return core.NewMyopic(c, 7, 1) }},
	}
	quanta := []core.QuantumPolicy{core.NewAdaptive(), core.Fixed{D: 50 * time.Microsecond}}
	margins := []time.Duration{0, time.Microsecond, 25 * time.Microsecond, 200 * time.Microsecond}
	first, tight, roomy := tightRoomy()
	phases := append([]core.PhaseInput{first}, marginPhases(11, 40)...)

	for _, q := range quanta {
		cfg := core.SearchConfig{
			Workers:    marginWorkers,
			Comm:       func(t *task.Task, k int) time.Duration { return remote.Cost(t.Affinity, k) },
			VertexCost: time.Microsecond,
			Policy:     q,
		}
		for _, pl := range planners {
			for _, margin := range margins {
				t.Run(fmt.Sprintf("%s/%s/margin=%v", q.Name(), pl.name, margin), func(t *testing.T) {
					ref, err := pl.mk(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pl.mk(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref = shadowGuard{Planner: ref, band: margin}
					for i, in := range phases {
						shadowIn, marginIn := in, in
						shadowIn.Batch = append([]*task.Task(nil), in.Batch...)
						marginIn.Batch = append([]*task.Task(nil), in.Batch...)
						marginIn.Margin = margin
						want, err := ref.PlanPhase(shadowIn)
						if err != nil {
							t.Fatalf("phase %d, shadow: %v", i, err)
						}
						res, err := got.PlanPhase(marginIn)
						if err != nil {
							t.Fatalf("phase %d, margin: %v", i, err)
						}
						if res.Quantum != want.Quantum || res.Used != want.Used || res.Stats != want.Stats {
							t.Fatalf("phase %d: margin planned (Q %v, used %v, %+v), shadow (Q %v, used %v, %+v)",
								i, res.Quantum, res.Used, res.Stats, want.Quantum, want.Used, want.Stats)
						}
						if len(res.Schedule) != len(want.Schedule) {
							t.Fatalf("phase %d: margin scheduled %d tasks, shadow %d", i, len(res.Schedule), len(want.Schedule))
						}
						for j := range res.Schedule {
							if res.Schedule[j] != want.Schedule[j] {
								t.Fatalf("phase %d, assignment %d: margin %+v, shadow %+v", i, j, res.Schedule[j], want.Schedule[j])
							}
						}
						if i == 0 {
							checkTightRoomy(t, res.Schedule, margin, tight, roomy)
						}
					}
				})
			}
		}
	}
}

// checkTightRoomy: both tasks fit a margin within the tight task's 2µs of
// slack; a wider one leaves the roomy task alone, as itself.
func checkTightRoomy(t *testing.T, sched []search.Assignment, margin time.Duration, tight, roomy *task.Task) {
	t.Helper()
	var got []*task.Task
	for _, a := range sched {
		got = append(got, a.Task)
	}
	want := []*task.Task{tight, roomy}
	if margin > 2*time.Microsecond {
		want = want[1:]
	}
	if len(got) != len(want) {
		t.Fatalf("tight/roomy phase scheduled %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tight/roomy phase scheduled %v, want %v", got, want)
		}
	}
}
