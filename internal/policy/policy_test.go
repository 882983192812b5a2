package policy

import (
	"slices"
	"strings"
	"testing"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

func testOptions(workers int) Options {
	return Options{Search: core.SearchConfig{
		Workers:    workers,
		Comm:       func(*task.Task, int) time.Duration { return 0 },
		VertexCost: time.Microsecond,
		PhaseCost:  25 * time.Microsecond,
		Policy:     core.NewAdaptive(),
	}}
}

func TestRegistryDuplicateRejected(t *testing.T) {
	r := NewRegistry()
	spec := Spec{Name: "x", New: func(Options) (core.Planner, error) { return nil, nil }}
	if err := r.Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(spec); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestRegistryUnknownListsNames(t *testing.T) {
	_, err := Default().New("no-such-policy", testOptions(2))
	if err == nil {
		t.Fatal("unknown policy constructed")
	}
	if !strings.Contains(err.Error(), "RT-SADS") {
		t.Fatalf("error does not list the registry: %v", err)
	}
}

func TestBuiltinsConstruct(t *testing.T) {
	reg := Default()
	names := reg.Names()
	want := []string{"RT-SADS", "D-COLS", "D-COLS-LL", "EDF-greedy", "myopic", "oracle"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("registry holds %v, want exactly %v", names, want)
	}
	for _, name := range names {
		p, err := reg.New(name, testOptions(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("%s: planner reports an empty name", name)
		}
	}
}

func TestDescribeCoversRegistry(t *testing.T) {
	var sb strings.Builder
	if err := Default().Describe(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range Default().Names() {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("Describe output missing %q:\n%s", name, sb.String())
		}
	}
}

// Every registered planner reads its batch in the order its Priority names
// and leaves it as it found it: the slice's order and every task's fields.
// The host orders the batch once per phase and the batch keeps that order
// across removals, so a planner that reordered it would leave the batch's
// keys out of step with its tasks.
func TestPlannersLeaveBatchOrder(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 200
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, prio := range []task.Priority{task.EDF, task.LLF} {
		for _, name := range Default().Names() {
			opts := testOptions(4)
			opts.Search.Priority = prio
			pl, err := Default().New(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			b := task.NewBatch(w.Tasks...)
			b.Order(pl.Priority())
			order := slices.Clone(b.Tasks())
			values := make([]task.Task, len(order))
			for i, tk := range order {
				values[i] = *tk
			}
			for phase, load := range []time.Duration{0, time.Millisecond, 20 * time.Millisecond} {
				loads := []time.Duration{load, 0, load / 2, 3 * load}
				if _, err := pl.PlanPhase(core.PhaseInput{Now: simtime.Instant(phase) * simtime.Instant(time.Millisecond), Batch: b.Tasks(), Loads: loads}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(b.Tasks(), order) {
					t.Fatalf("%s under %v, phase %d: the planner reordered its batch", name, prio, phase)
				}
				for i, tk := range order {
					if *tk != values[i] {
						t.Fatalf("%s under %v, phase %d: the planner changed task %v", name, prio, phase, tk)
					}
				}
			}
		}
	}
}
