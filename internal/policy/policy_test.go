package policy

import (
	"strings"
	"testing"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
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
	if len(names) < 7 {
		t.Fatalf("registry has %d policies, the tournament needs at least 7", len(names))
	}
	for _, name := range names {
		p, err := reg.New(name, testOptions(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("%s: planner reports an empty name", name)
		}
		pred, err := reg.NewPredicate(name, testOptions(4))
		if err != nil {
			t.Fatalf("%s predicate: %v", name, err)
		}
		if pred == nil {
			t.Fatalf("%s: no admission quick-test", name)
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

func TestLadder(t *testing.T) {
	opts := testOptions(2)
	planner, err := Default().Ladder(opts, core.DegradeConfig{}, "RT-SADS", "EDF-greedy", "myopic")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := planner.(*core.Degrading); !ok {
		t.Fatalf("three-rung ladder returned %T, want a degrade controller on top", planner)
	}
	planner, err = Default().Ladder(opts, core.DegradeConfig{}, "EDF-greedy")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := planner.(*core.Degrading); planner == nil || ok {
		t.Fatal("single-rung ladder should return the bare planner and no controller")
	}
	if _, err := Default().Ladder(opts, core.DegradeConfig{}, "RT-SADS", "bogus"); err == nil {
		t.Fatal("ladder accepted an unknown rung")
	}
}

// TestPrioritizerOrdersDiffer proves the four list orders are genuinely
// distinct priorities, not aliases: one crafted batch on which EDF, LST,
// SCT and RM all commit to a different permutation.
func TestPrioritizerOrdersDiffer(t *testing.T) {
	us := func(n int64) simtime.Instant { return simtime.Instant(time.Duration(n) * time.Microsecond) }
	mk := func(id int, arrUs, procUs, dUs int64) *task.Task {
		return &task.Task{
			ID:       task.ID(id),
			Arrival:  us(arrUs),
			Proc:     time.Duration(procUs) * time.Microsecond,
			Deadline: us(dUs),
		}
	}
	// Keys per task: deadline (EDF), deadline−proc (LST), proc (SCT),
	// deadline−arrival (RM/DM).
	batch := func() []*task.Task {
		return []*task.Task{
			mk(1, 0, 95, 100), // d=100 lax=5  p=95 w=100
			mk(2, 0, 50, 60),  // d=60  lax=10 p=50 w=60
			mk(3, 55, 20, 90), // d=90  lax=70 p=20 w=35
			mk(4, 80, 60, 85), // d=85  lax=25 p=60 w=5
		}
	}
	want := map[string][]task.ID{
		"EDF": {2, 4, 3, 1},
		"LST": {1, 2, 4, 3},
		"SCT": {3, 2, 4, 1},
		"RM":  {4, 3, 2, 1},
	}
	for _, p := range []Prioritizer{EDF(), LST(), SCT(), RM()} {
		b := batch()
		p.Order(0, b)
		got := make([]task.ID, len(b))
		for i, tk := range b {
			got[i] = tk.ID
		}
		w := want[p.Name]
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s ordered %v, want %v", p.Name, got, w)
			}
		}
	}
	// Pairwise distinct: the map above holds four different permutations.
	seen := map[string]string{}
	for name, perm := range want {
		key := ""
		for _, id := range perm {
			key += string(rune('0' + id))
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("crafted batch fails to separate %s from %s", name, prev)
		}
		seen[key] = name
	}
}

func TestNewListPlanner(t *testing.T) {
	p, err := NewListPlanner(testOptions(2).Search, Prioritizer{
		Name:  "FIFO",
		Order: func(_ simtime.Instant, b []*task.Task) { task.SortEDF(b) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "FIFO" {
		t.Fatalf("list planner named %q, want FIFO", p.Name())
	}
}
