// Package workload generates the paper's evaluation workloads (§5.1): a
// burst of read-only database transactions with deadlines proportional to
// their estimated processing cost, mapped onto real-time tasks with
// processor affinities derived from the replica placement.
package workload

import (
	"fmt"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/db"
	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// ArrivalKind selects how transaction arrival times are drawn.
type ArrivalKind int

const (
	// Bursty delivers every transaction to the host simultaneously at time
	// zero — the paper's §5.1 setting.
	Bursty ArrivalKind = iota + 1
	// Poisson spaces arrivals with exponential inter-arrival times of the
	// given mean — an extension for steady-state experiments.
	Poisson
)

// String returns the arrival kind's name.
func (k ArrivalKind) String() string {
	switch k {
	case Bursty:
		return "bursty"
	case Poisson:
		return "poisson"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// Params configures one workload instance. The zero value is not usable;
// start from DefaultParams.
type Params struct {
	Seed uint64 // drives database content, placement and transactions

	Workers     int     // number of working processors (excludes the host)
	Replication float64 // R: replica rate of sub-databases across workers
	SF          float64 // laxity (slack factor); deadline = SF × 10 × cost

	NumTransactions int

	PerIter    time.Duration // k: processing time of one checking iteration
	RemoteCost time.Duration // C: constant remote-communication cost

	// CostNoise models the gap between the host's worst-case execution
	// estimates and reality: each task's actual processing time is drawn
	// uniformly from [(1-CostNoise)×WCET, WCET]. Zero (the paper's setting,
	// where estimates are exact) disables it; positive values feed the
	// resource-reclaiming experiment.
	CostNoise float64

	// RangeProb is the probability that a transaction predicate is an
	// inclusive range instead of the paper's point match — an extension
	// that diversifies transaction cost classes. Zero reproduces the
	// paper.
	RangeProb float64

	// Placement selects the replica-placement strategy (default:
	// balanced).
	Placement affinity.Strategy

	Arrival          ArrivalKind
	MeanInterArrival time.Duration // Poisson only

	DB db.Config
}

// DefaultParams returns the paper's §5.1 configuration for the given number
// of working processors: 1000 bursty transactions over a 10-way partitioned
// database of 1000-record sub-databases, SF=1, R=30%.
//
// The per-iteration cost k and the remote cost C are calibration constants
// (the paper does not publish its Paragon values): k=1µs makes a full
// partition scan cost 1ms, and C=2ms makes remote execution twice as
// expensive as a local scan, so affinity genuinely matters at low
// replication rates — the regime where the paper's Figure 5/6 effects
// appear.
func DefaultParams(workers int) Params {
	return Params{
		Seed:            1,
		Workers:         workers,
		Replication:     0.30,
		SF:              1,
		NumTransactions: 1000,
		PerIter:         time.Microsecond,
		RemoteCost:      2 * time.Millisecond,
		Arrival:         Bursty,
		DB:              db.DefaultConfig(),
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Workers <= 0 || p.Workers > affinity.MaxProcs {
		return fmt.Errorf("workload: Workers %d must be in [1,%d]", p.Workers, affinity.MaxProcs)
	}
	if p.Replication <= 0 || p.Replication > 1 {
		return fmt.Errorf("workload: Replication %v must be in (0,1]", p.Replication)
	}
	if p.SF <= 0 {
		return fmt.Errorf("workload: SF %v must be positive", p.SF)
	}
	if p.NumTransactions <= 0 || p.NumTransactions > MaxTransactions {
		return fmt.Errorf("workload: NumTransactions %d must be in [1,%d]", p.NumTransactions, MaxTransactions)
	}
	if p.PerIter <= 0 {
		return fmt.Errorf("workload: PerIter %v must be positive", p.PerIter)
	}
	if p.RemoteCost < 0 {
		return fmt.Errorf("workload: RemoteCost %v must be non-negative", p.RemoteCost)
	}
	if p.CostNoise < 0 || p.CostNoise >= 1 {
		return fmt.Errorf("workload: CostNoise %v must be in [0,1)", p.CostNoise)
	}
	if p.RangeProb < 0 || p.RangeProb > 1 {
		return fmt.Errorf("workload: RangeProb %v must be in [0,1]", p.RangeProb)
	}
	switch p.Arrival {
	case Bursty:
	case Poisson:
		if p.MeanInterArrival <= 0 {
			return fmt.Errorf("workload: Poisson arrivals need MeanInterArrival > 0")
		}
	default:
		return fmt.Errorf("workload: unknown arrival kind %v", p.Arrival)
	}
	return p.DB.Validate()
}

// MaxTransactions bounds NumTransactions: a wire hello carries the
// parameters, and a shard or worker builds the transaction table they name.
// It leaves room for two hundred times the largest run the benchmark makes
// in its default 20 seconds.
const MaxTransactions = 1 << 22

// Workload is one generated problem instance: the database, the replica
// placement, the transactions and their task representations.
type Workload struct {
	Params    Params
	DB        *db.Database
	Placement []affinity.Set // per sub-database: the workers holding it
	Cost      affinity.CostModel
	Txns      []db.Transaction
	Tasks     []*task.Task // sorted by arrival time; nil from GenerateTable
}

// GenerateTable builds the part of p's workload a working processor needs —
// the database, the replica placement, the cost model and the transaction
// table — and leaves Tasks nil: a federation shard or a remote worker
// executes the transactions the host hands it and never owns the run's task
// list. Every field it sets is identical to Generate's.
func GenerateTable(p Params) (*Workload, error) {
	w, _, err := generateTable(p)
	return w, err
}

// Generate builds a workload from p: GenerateTable's table plus one task per
// transaction. The same parameters (including Seed) always produce the
// identical workload.
func Generate(p Params) (*Workload, error) {
	w, s, err := generateTable(p)
	if err != nil {
		return nil, err
	}
	w.Tasks = make([]*task.Task, len(w.Txns))
	tasks := make([]task.Task, len(w.Txns))
	arrival := simtime.Instant(0)
	for i := range w.Txns {
		q := &w.Txns[i]
		cost := w.DB.EstimateCost(q, p.PerIter)
		// §5.1: Deadline(q) = SF × 10 × Estimated_Cost(q), relative to
		// arrival.
		rel := time.Duration(p.SF * 10 * float64(cost))
		if p.Arrival == Poisson && i > 0 {
			gap := time.Duration(s.arrive.ExpFloat64() * float64(p.MeanInterArrival))
			arrival = arrival.Add(gap)
		}
		actual := cost
		if p.CostNoise > 0 {
			actual = time.Duration((1 - p.CostNoise*s.noise.Float64()) * float64(cost))
			if actual <= 0 {
				actual = 1
			}
		}
		tasks[i] = task.Task{
			ID:       task.ID(i),
			Arrival:  arrival,
			Proc:     cost,
			Actual:   actual,
			Deadline: arrival.Add(rel),
			Affinity: w.Placement[q.Sub],
			Payload:  q.ID,
		}
		w.Tasks[i] = &tasks[i]
	}
	return w, nil
}

// taskStreams are the two draws only the task list needs.
type taskStreams struct{ arrive, noise *rng.Source }

// generateTable draws the table and derives the task list's streams.
// Independent streams per concern keep sub-experiments comparable: e.g.
// changing the replication rate does not reshuffle transaction content. A
// Split advances only the root, so each stream is the same whichever of the
// others has drawn first — the task loop may run after the whole table.
func generateTable(p Params) (*Workload, taskStreams, error) {
	if err := p.Validate(); err != nil {
		return nil, taskStreams{}, err
	}
	root := rng.New(p.Seed)
	dbRNG := root.Split()
	placeRNG := root.Split()
	txnRNG := root.Split()
	arriveRNG := root.Split()
	noiseRNG := root.Split()

	database, err := db.Generate(p.DB, dbRNG)
	if err != nil {
		return nil, taskStreams{}, fmt.Errorf("workload: generate database: %w", err)
	}
	placement, err := affinity.ReplicateWith(p.DB.SubDBs, p.Workers, p.Replication, p.Placement, placeRNG)
	if err != nil {
		return nil, taskStreams{}, fmt.Errorf("workload: place replicas: %w", err)
	}
	w := &Workload{
		Params:    p,
		DB:        database,
		Placement: placement,
		Cost:      affinity.CostModel{Remote: p.RemoteCost},
		Txns:      make([]db.Transaction, p.NumTransactions),
	}
	opts := db.TxnOptions{RangeProb: p.RangeProb}
	for i := range w.Txns {
		w.Txns[i] = database.GenTransactionOpts(int32(i), txnRNG, opts)
	}
	return w, taskStreams{arrive: arriveRNG, noise: noiseRNG}, nil
}

// Txn returns the transaction behind a generated task.
func (w *Workload) Txn(t *task.Task) *db.Transaction {
	return &w.Txns[t.Payload]
}

// TotalWork returns the sum of all task processing times — a lower bound on
// aggregate worker busy time, used for utilisation metrics.
func (w *Workload) TotalWork() time.Duration {
	var sum time.Duration
	for _, t := range w.Tasks {
		sum += t.Proc
	}
	return sum
}
