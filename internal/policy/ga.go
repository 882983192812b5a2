package policy

import (
	"time"

	"rtsads/internal/rng"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// The anytime genetic optimizer (anytime.go) runs at one fixed setting,
// as the GA it follows does.
const (
	// gaSeed seeds the optimizer's deterministic random stream. One
	// stream serves the planner for its whole run, so identical phase
	// sequences reproduce bit-identical schedules.
	gaSeed = 1
	// gaPopulation is the number of permutations per generation.
	gaPopulation = 16
	// gaTournamentK is the selection-tournament size.
	gaTournamentK = 3
	// gaMutationPct is the per-offspring swap-mutation probability in
	// percent.
	gaMutationPct = 20
	// gaElite is the number of best individuals copied unchanged into the
	// next generation.
	gaElite = 2
	// gaPrefix caps the permutation length: the GA optimizes the order of
	// the min(gaPrefix, len(batch)) most urgent tasks of the EDF-sorted
	// batch. A decode costs gaPrefix × Workers feasibility evaluations,
	// so the cap is what keeps a single decode affordable inside a
	// quantum.
	gaPrefix = 24
	// gaShareDen divides the phase budget: the pre-search GA stage may
	// spend at most budget/gaShareDen before the DFS runs, so the DFS
	// keeps at least three quarters of it.
	gaShareDen = 4
)

// gaFit is one individual's fitness: lexicographic (more tasks scheduled,
// then smaller cost CE), matching the search engine's better().
type gaFit struct {
	evaluated bool
	depth     int
	ce        time.Duration
}

func (a gaFit) betterThan(b gaFit) bool {
	if !a.evaluated {
		return false
	}
	if !b.evaluated {
		return true
	}
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	return a.ce < b.ce
}

// gaState is one phase's genetic search over permutation-encoded task
// orders. A permutation of the K most urgent batch tasks decodes to a
// schedule by greedy earliest-completion placement under the same §4.3
// feasibility test as every other planner, so any incumbent it holds
// carries the same deadline guarantee. Decoding is charged against the
// quantum at K × Workers feasibility evaluations per individual — the
// same virtual currency as search vertices — which makes the optimizer
// anytime: it stops mid-generation the moment the next decode no longer
// fits, keeping the best-so-far incumbent (monotone by construction).
type gaState struct {
	rng        *rng.Source
	workers    int
	sumCost    bool
	comm       func(t *task.Task, proc int) time.Duration
	vertexCost time.Duration
	clock      func() time.Duration

	phaseEnd  simtime.Instant
	margin    time.Duration
	rootLoads []time.Duration
	batch     []*task.Task
	k         int // permutation length = min(gaPrefix, len(batch))

	pop  [][]int
	fits []gaFit

	best      gaFit
	bestSched []search.Assignment

	// generated counts decode feasibility evaluations — mirrored into
	// search.Stats.Generated so the phase's accounting stays honest.
	generated int

	scratchLoads []time.Duration
	scratchSched []search.Assignment
	inChild      []bool
	order        []int // breeding scratch: population ranked by fitness
}

// newGAState prepares one phase's optimizer. rootLoads is each worker's
// outstanding load at the END of the phase (max(0, load − quantum)) and
// phaseEnd the §4.3 reference instant — the same frame the search's root
// uses, so GA costs and vertex costs are directly comparable — and margin
// the guard band the decoder's feasibility test keeps. allowance is
// the stage-A budget share: in virtual mode the permutation length is
// capped so the share affords at least minDecodes decodes — a 24-task
// prefix at 1µs a vertex costs 192µs per decode, more than a whole default
// quantum, so without this cap the optimizer could never run at all under
// the experiments' calibration.
func newGAState(src *rng.Source, workers int, sumCost bool,
	comm func(t *task.Task, proc int) time.Duration, vertexCost time.Duration,
	clock func() time.Duration, phaseEnd simtime.Instant, margin time.Duration,
	rootLoads []time.Duration, batch []*task.Task, allowance time.Duration) *gaState {
	k := len(batch)
	if k > gaPrefix {
		k = gaPrefix
	}
	if clock == nil && vertexCost > 0 {
		const minDecodes = 2
		if afford := int(allowance / (minDecodes * time.Duration(workers) * vertexCost)); k > afford {
			k = afford
		}
		if k < 0 {
			k = 0
		}
	}
	g := &gaState{
		rng: src, workers: workers, sumCost: sumCost,
		comm: comm, vertexCost: vertexCost, clock: clock,
		phaseEnd: phaseEnd, margin: margin, rootLoads: rootLoads, batch: batch, k: k,
		scratchLoads: make([]time.Duration, workers),
		inChild:      make([]bool, k),
	}
	if k > 0 {
		g.initPopulation()
	}
	return g
}

// initPopulation seeds the first generation with the classic priority
// orders — identity (EDF, the batch's order), LST, SCT and DM — and fills
// the rest with random shuffles. Starting from known-good heuristics means
// the very first affordable decode already yields a serviceable incumbent.
func (g *gaState) initPopulation() {
	g.pop = make([][]int, gaPopulation)
	g.fits = make([]gaFit, gaPopulation)
	identity := make([]int, g.k)
	for i := range identity {
		identity[i] = i
	}
	g.pop[0] = identity
	seedOrders := []func(*task.Task) int64{
		func(t *task.Task) int64 { return int64(t.LatestStart()) },           // LST
		func(t *task.Task) int64 { return int64(t.Proc) },                    // SCT
		func(t *task.Task) int64 { return int64(t.Deadline.Sub(t.Arrival)) }, // DM
	}
	for i := 1; i < len(g.pop); i++ {
		perm := make([]int, g.k)
		copy(perm, identity)
		if i-1 < len(seedOrders) {
			key := seedOrders[i-1]
			// Stable order by (key, batch index): deterministic whatever
			// the sort's tie handling, because indices are unique.
			perm = sortedByKey(perm, g.batch, key)
		} else {
			g.rng.Shuffle(g.k, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		}
		g.pop[i] = perm
	}
}

// sortedByKey orders the index permutation by (key(batch[i]), i).
func sortedByKey(perm []int, batch []*task.Task, key func(*task.Task) int64) []int {
	out := append([]int(nil), perm...)
	// Insertion sort: k is small (≤ gaPrefix) and the code stays obviously
	// deterministic.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			ka, kb := key(batch[a]), key(batch[b])
			if ka < kb || (ka == kb && a < b) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// decodeCost is the virtual charge of evaluating one individual.
func (g *gaState) decodeCost() time.Duration {
	return time.Duration(g.k*g.workers) * g.vertexCost
}

// complete reports whether the incumbent schedules the ENTIRE batch — the
// precondition for feeding its CE to search.Problem.BoundCE.
func (g *gaState) complete() bool {
	return g.best.evaluated && g.best.depth == len(g.batch)
}

// decode places perm's tasks in order on the feasible worker with the
// earliest completion, skipping tasks feasible nowhere, and returns the
// fitness. The assignments land in g.scratchSched.
func (g *gaState) decode(perm []int) gaFit {
	loads := g.scratchLoads
	copy(loads, g.rootLoads)
	sched := g.scratchSched[:0]
	for _, idx := range perm {
		t := g.batch[idx]
		bestProc := -1
		var bestEnd, bestComm time.Duration
		for w := 0; w < g.workers; w++ {
			comm := g.comm(t, w)
			end := loads[w] + t.Proc + comm
			if !task.Fits(g.phaseEnd, end, g.margin, t.Deadline) {
				continue
			}
			if bestProc < 0 || end < bestEnd {
				bestProc, bestEnd, bestComm = w, end, comm
			}
		}
		if bestProc < 0 {
			continue
		}
		loads[bestProc] = bestEnd
		sched = append(sched, search.Assignment{
			Task: t, TaskIndex: idx, Proc: bestProc, Comm: bestComm, EndOffset: bestEnd,
		})
	}
	g.scratchSched = sched
	g.generated += g.k * g.workers
	var ce time.Duration
	if g.sumCost {
		ce = search.SumCost{}.FromLoads(loads)
	} else {
		ce = search.MaxCost{}.FromLoads(loads)
	}
	return gaFit{evaluated: true, depth: len(sched), ce: ce}
}

// evaluate scores individual i and promotes it to incumbent when strictly
// better — the monotone-incumbent contract.
func (g *gaState) evaluate(i int) {
	fit := g.decode(g.pop[i])
	g.fits[i] = fit
	if fit.betterThan(g.best) {
		g.best = fit
		g.bestSched = append(g.bestSched[:0], g.scratchSched...)
	}
}

// nextUnevaluated returns the lowest-index unevaluated individual, or -1.
func (g *gaState) nextUnevaluated() int {
	for i, f := range g.fits {
		if !f.evaluated {
			return i
		}
	}
	return -1
}

// evolve runs the optimizer until allowance is exhausted (virtual mode:
// the next decode would overrun; wall mode: the clock has advanced by
// allowance since entry) and returns the scheduling time consumed. It may
// be called repeatedly — the anytime planner calls it before the DFS and
// again on the DFS's leftover budget.
func (g *gaState) evolve(allowance time.Duration) time.Duration {
	if g.k == 0 || allowance <= 0 {
		return 0
	}
	var used time.Duration
	var wallStart time.Duration
	if g.clock != nil {
		wallStart = g.clock()
	}
	expired := func() bool {
		if g.clock != nil {
			return g.clock()-wallStart >= allowance
		}
		return used+g.decodeCost() > allowance
	}
	for !expired() {
		i := g.nextUnevaluated()
		if i < 0 {
			if g.k < 2 {
				break // one task: every permutation is the same schedule
			}
			g.breed()
			i = g.nextUnevaluated()
		}
		g.evaluate(i)
		if g.clock == nil {
			used += g.decodeCost()
		}
	}
	if g.clock != nil {
		used = g.clock() - wallStart
		if used > allowance {
			used = allowance
		}
	}
	return used
}

// inject replaces the worst evaluated individual with perm (the DFS's
// schedule order, in the polish stage) so breeding can recombine it.
func (g *gaState) inject(perm []int) {
	worst := -1
	for i := range g.fits {
		if !g.fits[i].evaluated {
			continue
		}
		if worst < 0 || g.fits[worst].betterThan(g.fits[i]) {
			worst = i
		}
	}
	if worst < 0 {
		worst = len(g.pop) - 1
	}
	g.pop[worst] = perm
	g.fits[worst] = gaFit{}
}

// rank orders population indices best-first, ties by lower index.
func (g *gaState) rank() []int {
	if g.order == nil {
		g.order = make([]int, len(g.pop))
	}
	order := g.order[:len(g.pop)]
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if g.fits[a].betterThan(g.fits[b]) || (!g.fits[b].betterThan(g.fits[a]) && a < b) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return order
}

// breed replaces the population with the next generation: gaElite copies of
// the best individuals (fitness carried over), the rest offspring of
// tournament-selected parents recombined by order crossover (OX1) with
// swap mutation. Unevaluated stragglers of a budget-truncated generation
// are simply replaced.
func (g *gaState) breed() {
	ranked := g.rank()
	next := make([][]int, len(g.pop))
	fits := make([]gaFit, len(g.pop))
	n := 0
	for ; n < gaElite && n < len(ranked); n++ {
		idx := ranked[n]
		next[n] = g.pop[idx]
		fits[n] = g.fits[idx]
	}
	for ; n < len(next); n++ {
		p1 := g.selectParent(ranked)
		p2 := g.selectParent(ranked)
		child := g.crossover(p1, p2)
		if g.rng.Intn(100) < gaMutationPct && g.k >= 2 {
			a, b := g.rng.Intn(g.k), g.rng.Intn(g.k)
			child[a], child[b] = child[b], child[a]
		}
		next[n] = child
	}
	g.pop = next
	g.fits = fits
}

// selectParent runs one selection tournament over the evaluated
// population: gaTournamentK uniform draws, fittest wins.
func (g *gaState) selectParent(ranked []int) []int {
	best := -1
	for i := 0; i < gaTournamentK; i++ {
		c := ranked[g.rng.Intn(len(ranked))]
		if best < 0 || g.fits[c].betterThan(g.fits[best]) {
			best = c
		}
	}
	return g.pop[best]
}

// crossover is OX1 order crossover: the child inherits a random slice of
// p1 in place, and the remaining positions are filled with p2's tasks in
// p2's order.
func (g *gaState) crossover(p1, p2 []int) []int {
	child := make([]int, g.k)
	a, b := g.rng.Intn(g.k), g.rng.Intn(g.k)
	if a > b {
		a, b = b, a
	}
	in := g.inChild
	for i := range in {
		in[i] = false
	}
	for i := a; i <= b; i++ {
		child[i] = p1[i]
		in[p1[i]] = true
	}
	pos := 0
	for _, v := range p2 {
		if in[v] {
			continue
		}
		if pos == a {
			pos = b + 1
		}
		child[pos] = v
		pos++
	}
	return child
}
