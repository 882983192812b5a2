// Package affinity models the task-to-processor affinity relation of the
// paper's distributed-memory cost model.
//
// A task references data objects that live in the private memories of some
// processors; the task has affinity with exactly those processors. Running
// the task elsewhere incurs a constant remote-communication cost C — the
// paper's model of a wormhole/cut-through interconnect, whose transfer cost
// is independent of the distance between source and destination.
package affinity

import (
	"fmt"
	"math/bits"
	"time"

	"rtsads/internal/rng"
)

// MaxProcs is the largest number of working processors a Set can describe.
// The paper's experiments use at most 10; a single 64-bit word keeps Set
// copies allocation-free on the scheduler's hot path.
const MaxProcs = 64

// Set is a bitset of working-processor indices in [0, MaxProcs).
type Set uint64

// NewSet returns a Set containing exactly the given processors.
func NewSet(procs ...int) Set {
	var s Set
	for _, p := range procs {
		s = s.Add(p)
	}
	return s
}

// Add returns s with processor p included. It panics if p is out of range,
// which always indicates a programming error in the caller.
func (s Set) Add(p int) Set {
	if p < 0 || p >= MaxProcs {
		panic(fmt.Sprintf("affinity: processor %d out of range", p))
	}
	return s | 1<<uint(p)
}

// Has reports whether processor p is in the set.
func (s Set) Has(p int) bool {
	if p < 0 || p >= MaxProcs {
		return false
	}
	return s&(1<<uint(p)) != 0
}

// Count returns the number of processors in the set.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// CountRange returns the number of processors in the set within
// [base, base+n) — a single mask-and-popcount, the routing tier's per-shard
// overlap signal evaluated once per task per shard.
func (s Set) CountRange(base, n int) int {
	return bits.OnesCount64(uint64(s.slice(base, n)))
}

// Range returns the set containing every processor in [base, base+n) — the
// mask form of CountRange, for callers that evaluate many sets against the
// same range and want the mask hoisted out of their loop.
func Range(base, n int) Set {
	return Set(^uint64(0)).slice(base, n)
}

// Rebase returns the processors of [base, base+n) renumbered to [0, n): the
// bit-level form of a shard localization, so remapping an affinity set is a
// shift and a mask rather than a per-processor loop.
func (s Set) Rebase(base, n int) Set {
	return s.slice(base, n) >> uint(base)
}

// slice masks the set down to the processors in [base, base+n).
func (s Set) slice(base, n int) Set {
	if base < 0 || n <= 0 || base >= MaxProcs {
		return 0
	}
	if base+n > MaxProcs {
		n = MaxProcs - base
	}
	var mask uint64
	if n >= 64 {
		mask = ^uint64(0)
	} else {
		mask = (1<<uint(n) - 1) << uint(base)
	}
	return s & Set(mask)
}

// Procs returns the processors in the set in ascending order.
func (s Set) Procs() []int {
	out := make([]int, 0, s.Count())
	for v := uint64(s); v != 0; {
		p := bits.TrailingZeros64(v)
		out = append(out, p)
		v &^= 1 << uint(p)
	}
	return out
}

// String renders the set as "{0,3,7}".
func (s Set) String() string {
	out := "{"
	for i, p := range s.Procs() {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", p)
	}
	return out + "}"
}

// CostModel is the paper's two-valued communication cost: c_ij = 0 when
// task i has affinity with processor j, and the constant Remote (the paper's
// C) otherwise.
type CostModel struct {
	// Remote is the constant communication cost C charged when a task
	// executes on a processor that does not hold its referenced data. It
	// must not be negative (workload.Validate refuses one): the search
	// relies on c_lk >= 0 to rule a task out from the least worker load.
	Remote time.Duration
}

// Cost returns the communication cost of running a task with affinity set s
// on processor p.
func (m CostModel) Cost(s Set, p int) time.Duration {
	if s.Has(p) {
		return 0
	}
	return m.Remote
}

// Strategy selects how replica placement distributes copies across the
// processors. The paper does not specify its placement; Balanced is the
// default, and the alternatives exist to measure placement sensitivity.
type Strategy int

const (
	// Balanced keeps per-processor replica counts even, breaking ties
	// randomly — the default.
	Balanced Strategy = iota
	// Random picks each object's replica holders uniformly at random
	// (per-processor counts may skew).
	Random
	// Clustered places each object's copies on consecutive processors —
	// the locality-preserving layout of rack- or board-local replication.
	Clustered
)

// String returns the strategy's name.
func (s Strategy) String() string {
	switch s {
	case Balanced:
		return "balanced"
	case Random:
		return "random"
	case Clustered:
		return "clustered"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a name to its Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "balanced":
		return Balanced, nil
	case "random":
		return Random, nil
	case "clustered":
		return Clustered, nil
	default:
		return 0, fmt.Errorf("affinity: unknown placement strategy %q", name)
	}
}

// Replicate places copies of numObjects data objects (the database's
// sub-databases) onto numProcs working processors at the given replication
// rate with the Balanced strategy, returning the affinity set of each
// object.
func Replicate(numObjects, numProcs int, rate float64, r *rng.Source) ([]Set, error) {
	return ReplicateWith(numObjects, numProcs, rate, Balanced, r)
}

// ReplicateWith is Replicate with an explicit placement strategy.
//
// The number of copies per object is round(rate*numProcs) clamped to
// [1, numProcs]: a 10% rate on 10 processors yields a single copy per
// object (the paper: "each processor holding in its local memory at most
// one copy of a sub-database"), while 100% replicates every object onto
// every processor.
func ReplicateWith(numObjects, numProcs int, rate float64, strat Strategy, r *rng.Source) ([]Set, error) {
	if numObjects <= 0 {
		return nil, fmt.Errorf("affinity: numObjects %d must be positive", numObjects)
	}
	if numProcs <= 0 || numProcs > MaxProcs {
		return nil, fmt.Errorf("affinity: numProcs %d must be in [1,%d]", numProcs, MaxProcs)
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("affinity: replication rate %v must be in [0,1]", rate)
	}
	copies := int(rate*float64(numProcs) + 0.5)
	if copies < 1 {
		copies = 1
	}
	if copies > numProcs {
		copies = numProcs
	}

	sets := make([]Set, numObjects)
	switch strat {
	case Balanced:
		load := make([]int, numProcs) // replicas currently held per processor
		order := r.Perm(numObjects)   // place objects in random order for tie fairness
		for _, obj := range order {
			var s Set
			for c := 0; c < copies; c++ {
				p := leastLoaded(load, s, r)
				s = s.Add(p)
				load[p]++
			}
			sets[obj] = s
		}
	case Random:
		for obj := range sets {
			var s Set
			for _, p := range r.Choose(numProcs, copies) {
				s = s.Add(p)
			}
			sets[obj] = s
		}
	case Clustered:
		for obj := range sets {
			var s Set
			start := (obj * copies) % numProcs
			for c := 0; c < copies; c++ {
				s = s.Add((start + c) % numProcs)
			}
			sets[obj] = s
		}
	default:
		return nil, fmt.Errorf("affinity: unknown strategy %v", strat)
	}
	return sets, nil
}

// leastLoaded returns a uniformly chosen processor among those with minimal
// replica load that are not already in exclude.
func leastLoaded(load []int, exclude Set, r *rng.Source) int {
	best := -1
	ties := 0
	for p, l := range load {
		if exclude.Has(p) {
			continue
		}
		switch {
		case best == -1 || l < load[best]:
			best, ties = p, 1
		case l == load[best]:
			// Reservoir-sample among ties for an unbiased choice.
			ties++
			if r.Intn(ties) == 0 {
				best = p
			}
		}
	}
	return best
}
