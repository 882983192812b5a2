// Package policy is the pluggable policy engine: a registry of named
// scheduling policies over the phase-planner contract, in the spirit of
// k8s-cluster-simulator's ProposedScheduler. Each registered Spec bundles a
// planner factory with the registry's two extension points — a Prioritizer
// (the task order a list planner commits to) and an admission-time
// Predicate (a utilization-style schedulability quick-test) — so comparing
// or extending policies no longer means editing core.
//
// The registry re-registers the paper's zoo (RT-SADS, D-COLS and its
// least-loaded variant, EDF-greedy, myopic, the oracle reference) and adds
// three classic priority orders as list planners (RM, LST, SCT) plus
// RT-SADS+GA, the anytime planner of anytime.go. Ladder chains any
// registered policies into a hysteretic degradation ladder, turning
// core.Degrading into one rung of a general mechanism; Tournament races
// every registered policy over a workload corpus.
package policy

import (
	"fmt"
	"io"
	"sync"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/represent"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Options carries everything a policy factory may need: the search
// configuration every planner shares, plus the GA knobs the anytime policy
// reads. Factories copy what they use; mutating Options after New returns
// does not affect the planner.
type Options struct {
	// Search parameterises the planner (workers, costs, quantum policy,
	// parallelism). Required.
	Search core.SearchConfig
	// GA tunes the anytime optimizer; zero values select defaults. Only
	// the RT-SADS+GA policy reads it.
	GA GAConfig
}

// Factory builds one planner instance from options.
type Factory func(Options) (core.Planner, error)

// PredicateFactory builds a policy's admission-time schedulability
// quick-test, or returns nil when the options cannot support one.
type PredicateFactory func(Options) admission.Predicate

// Spec describes one registered policy.
type Spec struct {
	// Name is the registry key, matched exactly by flags and lookups.
	Name string
	// Description is the one-line summary `-policy list` prints.
	Description string
	// New builds the planner. Required.
	New Factory
	// Predicate, when non-nil, builds the policy's admission quick-test
	// (wired behind the -admit-quick flag). Optional.
	Predicate PredicateFactory
}

// Registry maps policy names to specs, preserving registration order for
// display. Safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	order []string
	specs map[string]Spec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]Spec)}
}

// Register adds a spec. Names are unique: re-registering is an error, so a
// typo'd extension cannot silently shadow a built-in.
func (r *Registry) Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("policy: spec needs a name")
	}
	if s.New == nil {
		return fmt.Errorf("policy: spec %q needs a factory", s.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[s.Name]; dup {
		return fmt.Errorf("policy: %q is already registered", s.Name)
	}
	r.specs[s.Name] = s
	r.order = append(r.order, s.Name)
	return nil
}

// Lookup returns the spec registered under name.
func (r *Registry) Lookup(name string) (Spec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[name]
	return s, ok
}

// Names returns every registered name in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// New builds the named policy's planner. Unknown names fail with the full
// registry listed, so flag errors are self-explaining.
func (r *Registry) New(name string, opts Options) (core.Planner, error) {
	s, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, r.Names())
	}
	return s.New(opts)
}

// NewPredicate builds the named policy's admission quick-test, or nil when
// the policy does not define one.
func (r *Registry) NewPredicate(name string, opts Options) (admission.Predicate, error) {
	s, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, r.Names())
	}
	if s.Predicate == nil {
		return nil, nil
	}
	return s.Predicate(opts), nil
}

// Describe writes one line per registered policy — the body of
// `-policy list`.
func (r *Registry) Describe(w io.Writer) error {
	for _, name := range r.Names() {
		s, _ := r.Lookup(name)
		if _, err := fmt.Fprintf(w, "%-12s %s\n", s.Name, s.Description); err != nil {
			return err
		}
	}
	return nil
}

// Ladder chains the named policies into a degradation ladder: names[0] is
// the primary, and each subsequent name is the hysteretic fallback of the
// one before it (rung i falls back to rung i+1 under cfg, recursively).
// core.Degrading is the two-policy special case; a single name returns the
// bare planner. The phase results report the TOP rung's steps —
// transitions out of the primary.
func (r *Registry) Ladder(opts Options, cfg core.DegradeConfig, names ...string) (core.Planner, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("policy: ladder needs at least one policy")
	}
	planner, err := r.New(names[len(names)-1], opts)
	if err != nil {
		return nil, err
	}
	for i := len(names) - 2; i >= 0; i-- {
		primary, err := r.New(names[i], opts)
		if err != nil {
			return nil, err
		}
		if planner, err = core.NewDegrading(primary, planner, cfg); err != nil {
			return nil, err
		}
	}
	return planner, nil
}

// defaultRegistry builds the built-in policy set exactly once.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the shared registry of built-in policies. Callers may
// Register additional policies on it; built-ins cannot be replaced.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		for _, s := range builtins() {
			if err := defaultReg.Register(s); err != nil {
				// Only reachable through a duplicate in the literal below:
				// a programming error, not an input.
				panic(err)
			}
		}
	})
	return defaultReg
}

// utilizationFor adapts the demand-bound quick-test to a policy's worker
// count — the PredicateFactory every built-in shares, since the test is a
// property of the platform, not of any one priority order.
func utilizationFor(o Options) admission.Predicate {
	return NewUtilization(o.Search.Workers)
}

// listFactory builds a list planner under the given prioritizer.
func listFactory(name string, p Prioritizer) Factory {
	return func(o Options) (core.Planner, error) {
		return core.NewList(o.Search, name, p.Order)
	}
}

// Algorithm names a registered policy: the type every configuration that
// selects a scheduler carries (livecluster, federation, the experiments).
type Algorithm string

// The paper's zoo, by registry name.
const (
	RTSADS    Algorithm = "RT-SADS"
	DCOLS     Algorithm = "D-COLS"
	EDFGreedy Algorithm = "EDF-greedy"
	Myopic    Algorithm = "myopic"
	// Oracle is a near-zero-overhead greedy scheduler (1ns per decision,
	// no per-phase cost): an optimistic reference showing how much of the
	// gap to perfect compliance is scheduling overhead rather than
	// capacity.
	Oracle Algorithm = "oracle"
	// DCOLSLeastLoaded is D-COLS with the paper-mentioned heuristic
	// processor order (least-loaded instead of round-robin) — an ablation
	// showing the sequence representation's limits are structural, not an
	// artefact of round-robin.
	DCOLSLeastLoaded Algorithm = "D-COLS-LL"
)

// builtins returns the default policy set in display order.
func builtins() []Spec {
	return []Spec{
		{
			Name:        string(RTSADS),
			Description: "the paper's assignment-oriented quantum-bounded DFS (§4)",
			New:         func(o Options) (core.Planner, error) { return core.NewRTSADS(o.Search) },
			Predicate:   utilizationFor,
		},
		{
			Name:        string(DCOLS),
			Description: "sequence-oriented search baseline, same quantum formula (§5.2)",
			New:         func(o Options) (core.Planner, error) { return core.NewDCOLS(o.Search) },
			Predicate:   utilizationFor,
		},
		{
			Name:        string(DCOLSLeastLoaded),
			Description: "D-COLS with least-loaded processor order instead of round-robin",
			New: func(o Options) (core.Planner, error) {
				rep := represent.NewSequence(o.Search.Workers)
				rep.LeastLoaded = true
				if o.Search.SumCost {
					rep.Cost = search.SumCost{}
				}
				return core.NewSearchPlanner(o.Search, rep, string(DCOLSLeastLoaded))
			},
			Predicate: utilizationFor,
		},
		{
			Name:        string(EDFGreedy),
			Description: "list scheduling in earliest-deadline order, no backtracking",
			New:         func(o Options) (core.Planner, error) { return core.NewEDFGreedy(o.Search) },
			Predicate:   utilizationFor,
		},
		{
			Name:        string(Myopic),
			Description: "windowed heuristic H = d + w·est over the 7 most urgent tasks",
			New:         func(o Options) (core.Planner, error) { return core.NewMyopic(o.Search, 7, 1) },
			Predicate:   utilizationFor,
		},
		{
			Name:        "RM",
			Description: "list scheduling by static deadline-monotonic priority (aperiodic RM)",
			New:         listFactory("RM", RM()),
			Predicate:   utilizationFor,
		},
		{
			Name:        "LST",
			Description: "list scheduling by least slack time (d − now − p)",
			New:         listFactory("LST", LST()),
			Predicate:   utilizationFor,
		},
		{
			Name:        "SCT",
			Description: "list scheduling by shortest completion time (SJF order)",
			New:         listFactory("SCT", SCT()),
			Predicate:   utilizationFor,
		},
		{
			Name:        "RT-SADS+GA",
			Description: "anytime: GA incumbent seeds the DFS with its CE bound, polishes leftovers",
			New:         func(o Options) (core.Planner, error) { return NewAnytime(o.Search, o.GA) },
			Predicate:   utilizationFor,
		},
		{
			Name:        string(Oracle),
			Description: "EDF-greedy at near-zero scheduling overhead (optimistic reference)",
			New: func(o Options) (core.Planner, error) {
				cfg := o.Search
				cfg.VertexCost = 1 // 1ns per decision
				cfg.PhaseCost = 0
				return core.NewEDFGreedy(cfg)
			},
			Predicate: utilizationFor,
		},
	}
}

// Prioritizer is the task-ordering extension point: a named, deterministic
// batch order a list planner commits to. Order must sort in place and may
// use now for dynamic priorities.
type Prioritizer struct {
	Name  string
	Order core.OrderFunc
}

// EDF returns the earliest-deadline-first order (the paper's heuristic).
func EDF() Prioritizer {
	return Prioritizer{Name: "EDF", Order: func(_ simtime.Instant, b []*task.Task) { task.SortEDF(b) }}
}

// LST returns the least-slack-time order. Slack at the phase start is
// d − now − p; with now common to the whole batch that orders identically
// to the static laxity d − p, so the shared sort suffices.
func LST() Prioritizer {
	return Prioritizer{Name: "LST", Order: func(_ simtime.Instant, b []*task.Task) { task.SortLLF(b) }}
}

// SCT returns the shortest-completion-time order (SJF by processing time).
func SCT() Prioritizer {
	return Prioritizer{Name: "SCT", Order: func(_ simtime.Instant, b []*task.Task) { task.SortSCT(b) }}
}

// RM returns the rate-monotonic analogue for this aperiodic workload:
// static priority by relative deadline (deadline-monotonic), the shorter
// window playing the shorter period's role.
func RM() Prioritizer {
	return Prioritizer{Name: "RM", Order: func(_ simtime.Instant, b []*task.Task) { task.SortDM(b) }}
}

// NewListPlanner builds a list planner under an arbitrary prioritizer —
// the one-liner the TUTORIAL's custom-policy walkthrough registers.
func NewListPlanner(cfg core.SearchConfig, p Prioritizer) (core.Planner, error) {
	return core.NewList(cfg, p.Name, p.Order)
}
