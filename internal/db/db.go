// Package db implements the distributed real-time database substrate of the
// paper's evaluation (§5): a relational table of r tuples hash-partitioned
// into d sub-databases, each held in the private memory of one or more
// working processors, queried by read-only transactions with firm deadlines.
//
// Layout follows §5.1 exactly: each sub-database holds TuplesPerSub records
// of NumAttrs attributes; attribute domains are disjoint between
// sub-databases (so a transaction's attribute values identify a unique
// sub-database); sub-databases are indexed on a designated key attribute;
// and the host maintains a global index file used to estimate worst-case
// transaction execution costs before scheduling.
package db

import (
	"fmt"
	"math"
	"time"

	"rtsads/internal/rng"
)

// NumAttrs is the number of attributes per tuple (§5.1: "Each sub-database
// holds 1000 records and 10 attributes").
const NumAttrs = 10

// MaxTuples bounds a database's SubDBs × TuplesPerSub: a wire hello carries
// the configuration, and a shard or worker builds the database it names. It
// is over four hundred times the paper's 10 000 tuples.
const MaxTuples = 1 << 22

// Value is an attribute value. Domains are disjoint integer ranges, so a
// value alone determines both its sub-database and its attribute.
type Value int32

// Tuple is one database record.
type Tuple [NumAttrs]Value

// Config describes the shape of the generated database.
type Config struct {
	// SubDBs is d, the number of sub-databases the relation is partitioned
	// into (§5.1: 10).
	SubDBs int
	// TuplesPerSub is r/d, the number of records per sub-database (§5.1:
	// 1000).
	TuplesPerSub int
	// DomainSize is the number of distinct values in each attribute's
	// domain within one sub-database. The expected key frequency — and thus
	// the expected cost of an indexed transaction — is
	// TuplesPerSub/DomainSize.
	DomainSize int
	// KeyAttr is the attribute the sub-databases are indexed on (§5.1:
	// "attribute #1", index 0 here).
	KeyAttr int
	// ExtraIndexes lists additional attributes to index, beyond KeyAttr —
	// an extension over the paper's single-index schema that diversifies
	// transaction cost classes. Empty reproduces the paper.
	ExtraIndexes []int
}

// DefaultConfig returns the paper's §5.1 parameters. The domain size is a
// calibration constant the paper does not publish; 10 distinct values per
// attribute gives keyed transactions an expected cost of ~100 checking
// iterations (a tenth of a full partition scan), which makes both the
// indexed and the scanning transaction classes schedulable under the
// SF×10×cost deadline rule.
func DefaultConfig() Config {
	return Config{SubDBs: 10, TuplesPerSub: 1000, DomainSize: 10, KeyAttr: 0}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SubDBs <= 0 {
		return fmt.Errorf("db: SubDBs %d must be positive", c.SubDBs)
	}
	if c.TuplesPerSub <= 0 {
		return fmt.Errorf("db: TuplesPerSub %d must be positive", c.TuplesPerSub)
	}
	if c.DomainSize <= 0 {
		return fmt.Errorf("db: DomainSize %d must be positive", c.DomainSize)
	}
	if c.TuplesPerSub > MaxTuples/c.SubDBs {
		return fmt.Errorf("db: %d sub-databases × %d tuples exceed the bound of %d tuples",
			c.SubDBs, c.TuplesPerSub, MaxTuples)
	}
	if c.DomainSize > math.MaxInt32/NumAttrs/c.SubDBs {
		return fmt.Errorf("db: %d sub-databases × %d attributes × DomainSize %d values overflow a 32-bit Value",
			c.SubDBs, NumAttrs, c.DomainSize)
	}
	if c.KeyAttr < 0 || c.KeyAttr >= NumAttrs {
		return fmt.Errorf("db: KeyAttr %d out of range [0,%d)", c.KeyAttr, NumAttrs)
	}
	seen := map[int]bool{c.KeyAttr: true}
	for _, a := range c.ExtraIndexes {
		if a < 0 || a >= NumAttrs {
			return fmt.Errorf("db: indexed attribute %d out of range [0,%d)", a, NumAttrs)
		}
		if seen[a] {
			return fmt.Errorf("db: attribute %d indexed twice", a)
		}
		seen[a] = true
	}
	return nil
}

// IndexedAttrs returns every indexed attribute: the key attribute first,
// then the extra indexes.
func (c Config) IndexedAttrs() []int {
	return append([]int{c.KeyAttr}, c.ExtraIndexes...)
}

// domainBase returns the first value of the domain of attribute attr within
// sub-database sub. Domains are consecutive disjoint ranges:
// [base, base+DomainSize).
func (c Config) domainBase(sub, attr int) Value {
	return Value((sub*NumAttrs + attr) * c.DomainSize)
}

// SubOfValue returns the sub-database that owns value v, or -1 when v is
// outside every domain.
func (c Config) SubOfValue(v Value) int {
	if v < 0 {
		return -1
	}
	sub := int(v) / (NumAttrs * c.DomainSize)
	if sub >= c.SubDBs {
		return -1
	}
	return sub
}

// AttrOfValue returns the attribute whose domain contains v, or -1 when v is
// outside every domain.
func (c Config) AttrOfValue(v Value) int {
	if v < 0 || c.SubOfValue(v) < 0 {
		return -1
	}
	return (int(v) / c.DomainSize) % NumAttrs
}

// SubDB is one partition of the relation, resident in the private memory of
// every working processor that holds a replica.
type SubDB struct {
	ID     int
	Tuples []Tuple
	// index holds each indexed attribute's value→positions index — the
	// per-partition indexes the workers use instead of full scans. An
	// unindexed attribute's entry is empty.
	index [NumAttrs]posIndex
}

// posIndex is one attribute's index over a sub-database in CSR layout: the
// tuples holding the k-th value of the attribute's domain are at
// positions pos[off[k]:off[k+1]], in ascending order.
type posIndex struct{ off, pos []int32 }

// Database is the full partitioned relation plus the host-side global index
// file used for cost estimation (§5.1: "the host processor maintains the
// global index file of the database"). Domains are disjoint, so a value's
// global tuple count is its run length in its owning sub-database's index
// offsets; Frequency reads it there.
type Database struct {
	Config Config
	Subs   []*SubDB
}

// Generate builds a database according to cfg, drawing every attribute value
// uniformly from its domain (§5.1: "A uniformly distributed item is
// generated for each attribute-value based on its domain").
func Generate(cfg Config, r *rng.Source) (*Database, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	subs, tuples := make([]SubDB, cfg.SubDBs), make([]Tuple, cfg.SubDBs*cfg.TuplesPerSub)
	d := &Database{Config: cfg, Subs: make([]*SubDB, cfg.SubDBs)}
	for s := range subs {
		ts := tuples[s*cfg.TuplesPerSub : (s+1)*cfg.TuplesPerSub : (s+1)*cfg.TuplesPerSub]
		for i := range ts {
			for a := range ts[i] {
				ts[i][a] = cfg.domainBase(s, a) + Value(r.Intn(cfg.DomainSize))
			}
		}
		subs[s].ID, subs[s].Tuples = s, ts
		d.Subs[s] = &subs[s]
	}
	// Index every indexed attribute by a counting pass: offsets from the
	// per-value counts, then positions in tuple order.
	indexed, dom := cfg.IndexedAttrs(), cfg.DomainSize
	off := make([]int32, len(indexed)*cfg.SubDBs*(dom+1))
	pos := make([]int32, len(indexed)*len(tuples))
	next := make([]int32, dom)
	for _, a := range indexed {
		for s := range subs {
			ix, base := &subs[s].index[a], cfg.domainBase(s, a)
			ix.off, off = off[:dom+1:dom+1], off[dom+1:]
			ix.pos, pos = pos[:cfg.TuplesPerSub:cfg.TuplesPerSub], pos[cfg.TuplesPerSub:]
			ts := subs[s].Tuples
			for i := range ts {
				ix.off[ts[i][a]-base+1]++
			}
			for k := range dom {
				ix.off[k+1] += ix.off[k]
			}
			copy(next, ix.off)
			for i := range ts {
				k := ts[i][a] - base
				ix.pos[next[k]], next[k] = int32(i), next[k]+1
			}
		}
	}
	return d, nil
}

// TotalTuples returns r, the global relation size.
func (d *Database) TotalTuples() int {
	return d.Config.SubDBs * d.Config.TuplesPerSub
}

// KeyFrequency returns the global index file's tuple count for the given
// key value.
func (d *Database) KeyFrequency(v Value) int { return d.Frequency(d.Config.KeyAttr, v) }

// Frequency returns the global index file's tuple count for the given
// value of an indexed attribute (0 when the attribute is not indexed or v
// lies outside its domains).
func (d *Database) Frequency(attr int, v Value) int {
	sub := d.Config.SubOfValue(v)
	if sub < 0 || d.Config.AttrOfValue(v) != attr {
		return 0
	}
	off := d.Subs[sub].index[attr].off
	if off == nil {
		return 0
	}
	k := int(v) % d.Config.DomainSize
	return int(off[k+1] - off[k])
}

// Predicate is one condition of a transaction: an attribute=value point
// match (the paper's form), or — with Range set — an inclusive
// attribute∈[Lo,Hi] range (an extension). The values lead and the two
// one-byte fields share the last word, so a predicate is 16 bytes.
type Predicate struct {
	Value Value
	Lo    Value
	Hi    Value
	Attr  uint8 // < NumAttrs
	Range bool
}

// match reports whether v satisfies the predicate.
func (p Predicate) match(v Value) bool {
	if p.Range {
		return v >= p.Lo && v <= p.Hi
	}
	return v == p.Value
}

// Transaction is a read-only query: locate the tuples that match every
// predicate (§5.1: "A transaction is characterized by the attributes values
// that transaction aims to locate").
type Transaction struct {
	ID    int32
	Sub   int // the sub-database the predicate values belong to
	Preds []Predicate
}

// HasKey returns the key-attribute point value carried by the transaction,
// if any. Transactions providing the key can be located through the index.
func (q *Transaction) HasKey(keyAttr int) (Value, bool) {
	for _, p := range q.Preds {
		if int(p.Attr) == keyAttr && !p.Range {
			return p.Value, true
		}
	}
	return 0, false
}

// TxnOptions extends transaction generation beyond the paper's
// point-predicate form.
type TxnOptions struct {
	// RangeProb is the probability that a predicate is an inclusive range
	// over its attribute's domain instead of a point match. Zero
	// reproduces the paper.
	RangeProb float64
}

// GenTransaction draws one transaction per §5.1: a uniformly chosen
// sub-database, a uniformly distributed number of given attribute-values
// (1..NumAttrs distinct attributes), each value picked equiprobably from its
// domain.
func (d *Database) GenTransaction(id int32, r *rng.Source) Transaction {
	return d.GenTransactionOpts(id, r, TxnOptions{})
}

// GenTransactionOpts draws one transaction with the given extensions. Its
// one allocation is the predicate slice: the attribute subset is the head of
// a permutation drawn into a stack array.
func (d *Database) GenTransactionOpts(id int32, r *rng.Source, opts TxnOptions) Transaction {
	cfg := d.Config
	sub := r.Intn(cfg.SubDBs)
	n := r.IntRange(1, NumAttrs)
	var perm [NumAttrs]int
	r.PermInto(perm[:])
	preds := make([]Predicate, n)
	for i, a := range perm[:n] {
		base := cfg.domainBase(sub, a)
		if r.Bool(opts.RangeProb) {
			lo := base + Value(r.Intn(cfg.DomainSize))
			hi := base + Value(r.Intn(cfg.DomainSize))
			if lo > hi {
				lo, hi = hi, lo
			}
			preds[i] = Predicate{Attr: uint8(a), Range: true, Lo: lo, Hi: hi}
			continue
		}
		preds[i] = Predicate{
			Attr:  uint8(a),
			Value: base + Value(r.Intn(cfg.DomainSize)),
		}
	}
	return Transaction{ID: id, Sub: sub, Preds: preds}
}

// indexedCount returns the number of tuples an index probe for pred would
// have to check, and whether pred can use an index at all. Because
// attribute domains are disjoint between sub-databases, the global index
// frequency equals the count inside the owning partition.
func (d *Database) indexedCount(pred Predicate) (int, bool) {
	a := int(pred.Attr)
	if a >= NumAttrs || d.Subs[0].index[a].off == nil {
		return 0, false
	}
	if !pred.Range {
		return d.Frequency(a, pred.Value), true
	}
	n := 0
	for v := pred.Lo; v <= pred.Hi; v++ {
		n += d.Frequency(a, v)
	}
	return n, true
}

// accessPath selects the cheapest way to execute q: the indexed predicate
// with the fewest candidate tuples, or a full partition scan when no
// predicate is indexed. The executor applies the identical rule, so the
// host's estimate equals the worker's actual iteration count. It returns
// the index of the chosen predicate (-1 for a scan) and the worst-case
// iteration count.
func (d *Database) accessPath(q *Transaction) (pred int, iterations int) {
	pred = -1
	iterations = d.Config.TuplesPerSub
	for i, p := range q.Preds {
		n, ok := d.indexedCount(p)
		if !ok {
			continue
		}
		if n < 1 {
			n = 1 // the probe itself
		}
		if n < iterations || (n == iterations && pred == -1) {
			pred, iterations = i, n
		}
	}
	return pred, iterations
}

// EstimateIterations returns the worst-case number of checking iterations a
// worker needs to execute q — the paper's host-side estimation function:
// the global-index frequency when q provides an indexed value, r/d (a full
// sub-database scan) otherwise. A keyed transaction whose value happens to
// be absent still costs one index probe, so the estimate is at least 1.
func (d *Database) EstimateIterations(q *Transaction) int {
	_, n := d.accessPath(q)
	return n
}

// EstimateCost returns the worst-case execution cost of q when each checking
// iteration costs perIter (the paper's constant k):
// Execution_Cost(q) = k × iterations.
func (d *Database) EstimateCost(q *Transaction, perIter time.Duration) time.Duration {
	return time.Duration(d.EstimateIterations(q)) * perIter
}

// ExecResult reports the outcome of executing a transaction on a replica.
type ExecResult struct {
	// Matches is the number of tuples satisfying every predicate.
	Matches int
	// Iterations is the number of checking iterations performed; the
	// worker's execution time is Iterations × k. By construction it equals
	// the host's estimate, because the estimate is the worst case of the
	// same access path.
	Iterations int
}

// Execute runs q against this sub-database replica (which must belong to
// database d): an index probe plus candidate checking when a predicate is
// indexed, a full partition scan otherwise. It returns an error when q
// belongs to a different sub-database — executing it there would silently
// return no matches, which always indicates a placement bug in the caller.
func (d *Database) Execute(s *SubDB, q *Transaction) (ExecResult, error) {
	if q.Sub != s.ID {
		return ExecResult{}, fmt.Errorf("db: transaction %d targets sub-database %d, executed on %d",
			q.ID, q.Sub, s.ID)
	}
	predIdx, _ := d.accessPath(q)
	if predIdx < 0 {
		res := ExecResult{Iterations: len(s.Tuples)}
		for i := range s.Tuples {
			if s.matches(i, q.Preds) {
				res.Matches++
			}
		}
		return res, nil
	}
	p := q.Preds[predIdx]
	lo, hi := p.Lo, p.Hi
	if !p.Range {
		lo, hi = p.Value, p.Value
	}
	// The values of [lo, hi] in this sub-database's domain hold one
	// contiguous run of index positions.
	ix, base := &s.index[p.Attr], int(d.Config.domainBase(s.ID, int(p.Attr)))
	var candidates []int32
	if k, kHi := max(int(lo)-base, 0), min(int(hi)-base, d.Config.DomainSize-1); k <= kHi {
		candidates = ix.pos[ix.off[k]:ix.off[kHi+1]]
	}
	res := ExecResult{Iterations: len(candidates)}
	if res.Iterations == 0 {
		res.Iterations = 1 // the index probe itself
	}
	for _, i := range candidates {
		if s.matches(int(i), q.Preds) {
			res.Matches++
		}
	}
	return res, nil
}

func (s *SubDB) matches(i int, preds []Predicate) bool {
	for _, p := range preds {
		if !p.match(s.Tuples[i][int(p.Attr)]) {
			return false
		}
	}
	return true
}
