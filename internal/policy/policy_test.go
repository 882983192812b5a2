package policy

import (
	"strings"
	"testing"
	"time"

	"rtsads/internal/core"
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
