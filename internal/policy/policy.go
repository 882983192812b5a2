// Package policy is the pluggable policy engine: a registry of named
// scheduling policies over the phase-planner contract, in the spirit of
// k8s-cluster-simulator's ProposedScheduler, so comparing or extending
// policies no longer means editing core. A planner names the order it reads
// its batch in (core.Planner.Priority) and the host orders the batch for it.
//
// The registry holds the paper's zoo: RT-SADS, D-COLS and its least-loaded
// variant, EDF-greedy, myopic and the oracle reference. Tournament races
// every registered policy over a fixed workload corpus. Utilization is the
// admission-time schedulability quick-test, a property of the platform
// rather than of any one policy.
package policy

import (
	"fmt"
	"io"
	"sync"

	"rtsads/internal/core"
	"rtsads/internal/represent"
	"rtsads/internal/search"
)

// Options carries everything a policy factory may need: the search
// configuration every planner shares. Factories copy what they use;
// mutating Options after New returns does not affect the planner.
type Options struct {
	// Search parameterises the planner (workers, costs, quantum policy,
	// parallelism). Required.
	Search core.SearchConfig
}

// Factory builds one planner instance from options.
type Factory func(Options) (core.Planner, error)

// Spec describes one registered policy.
type Spec struct {
	// Name is the registry key, matched exactly by flags and lookups.
	Name string
	// Description is the one-line summary `-policy list` prints.
	Description string
	// New builds the planner. Required.
	New Factory
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
		},
		{
			Name:        string(DCOLS),
			Description: "sequence-oriented search baseline, same quantum formula (§5.2)",
			New:         func(o Options) (core.Planner, error) { return core.NewDCOLS(o.Search) },
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
		},
		{
			Name:        string(EDFGreedy),
			Description: "list scheduling in earliest-deadline order, no backtracking",
			New:         func(o Options) (core.Planner, error) { return core.NewEDFGreedy(o.Search) },
		},
		{
			Name:        string(Myopic),
			Description: "windowed heuristic H = d + w·est over the 7 most urgent tasks",
			New:         func(o Options) (core.Planner, error) { return core.NewMyopic(o.Search, 7, 1) },
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
		},
	}
}
