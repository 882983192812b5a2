package db

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"rtsads/internal/rng"
)

func testConfig() Config {
	return Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 20, KeyAttr: 0}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero subdbs", func(c *Config) { c.SubDBs = 0 }},
		{"zero tuples", func(c *Config) { c.TuplesPerSub = 0 }},
		{"zero domain", func(c *Config) { c.DomainSize = 0 }},
		{"negative key", func(c *Config) { c.KeyAttr = -1 }},
		{"key too large", func(c *Config) { c.KeyAttr = NumAttrs }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig()
			tt.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestDomainsDisjoint(t *testing.T) {
	cfg := testConfig()
	seen := map[Value]string{}
	for s := 0; s < cfg.SubDBs; s++ {
		for a := 0; a < NumAttrs; a++ {
			base := cfg.domainBase(s, a)
			for v := base; v < base+Value(cfg.DomainSize); v++ {
				if prev, ok := seen[v]; ok {
					t.Fatalf("value %d in two domains: %s and sub=%d attr=%d", v, prev, s, a)
				}
				seen[v] = ""
			}
		}
	}
}

func TestSubAndAttrOfValue(t *testing.T) {
	cfg := testConfig()
	for s := 0; s < cfg.SubDBs; s++ {
		for a := 0; a < NumAttrs; a++ {
			v := cfg.domainBase(s, a) + Value(cfg.DomainSize/2)
			if got := cfg.SubOfValue(v); got != s {
				t.Errorf("SubOfValue(%d) = %d, want %d", v, got, s)
			}
			if got := cfg.AttrOfValue(v); got != a {
				t.Errorf("AttrOfValue(%d) = %d, want %d", v, got, a)
			}
		}
	}
	if cfg.SubOfValue(-1) != -1 || cfg.AttrOfValue(-1) != -1 {
		t.Error("negative value not rejected")
	}
	tooBig := Value(cfg.SubDBs * NumAttrs * cfg.DomainSize)
	if cfg.SubOfValue(tooBig) != -1 {
		t.Error("out-of-range value not rejected")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != cfg.SubDBs {
		t.Fatalf("generated %d sub-databases, want %d", len(d.Subs), cfg.SubDBs)
	}
	if d.TotalTuples() != cfg.SubDBs*cfg.TuplesPerSub {
		t.Errorf("TotalTuples = %d", d.TotalTuples())
	}
	for s, sub := range d.Subs {
		if sub.ID != s {
			t.Errorf("sub %d has ID %d", s, sub.ID)
		}
		if len(sub.Tuples) != cfg.TuplesPerSub {
			t.Errorf("sub %d has %d tuples", s, len(sub.Tuples))
		}
		for i, tup := range sub.Tuples {
			for a, v := range tup {
				if cfg.SubOfValue(v) != s || cfg.AttrOfValue(v) != a {
					t.Fatalf("sub %d tuple %d attr %d: value %d outside its domain", s, i, a, v)
				}
			}
		}
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}, rng.New(1)); err == nil {
		t.Error("Generate accepted an invalid config")
	}
}

func TestGlobalIndexConsistent(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// The global index frequency of every key value must equal the actual
	// number of tuples with that key, and the sum of frequencies must be r.
	total := 0
	counts := map[Value]int{}
	for _, sub := range d.Subs {
		for _, tup := range sub.Tuples {
			counts[tup[cfg.KeyAttr]]++
		}
	}
	for v, want := range counts {
		if got := d.KeyFrequency(v); got != want {
			t.Errorf("KeyFrequency(%d) = %d, want %d", v, got, want)
		}
		total += want
	}
	if total != d.TotalTuples() {
		t.Errorf("index covers %d tuples, want %d", total, d.TotalTuples())
	}
}

func TestGenTransactionShape(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := int32(0); i < 500; i++ {
		q := d.GenTransaction(i, r)
		if q.ID != i {
			t.Fatalf("transaction ID = %d, want %d", q.ID, i)
		}
		if q.Sub < 0 || q.Sub >= cfg.SubDBs {
			t.Fatalf("transaction sub %d out of range", q.Sub)
		}
		if len(q.Preds) < 1 || len(q.Preds) > NumAttrs {
			t.Fatalf("transaction has %d predicates", len(q.Preds))
		}
		seenAttr := map[uint8]bool{}
		for _, p := range q.Preds {
			if seenAttr[p.Attr] {
				t.Fatalf("duplicate predicate attribute %d", p.Attr)
			}
			seenAttr[p.Attr] = true
			if cfg.SubOfValue(p.Value) != q.Sub {
				t.Fatalf("predicate value %d not in sub %d's domain", p.Value, q.Sub)
			}
			if cfg.AttrOfValue(p.Value) != int(p.Attr) {
				t.Fatalf("predicate value %d not in attribute %d's domain", p.Value, p.Attr)
			}
		}
	}
}

func TestEstimateIterations(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Without the key attribute: full partition scan.
	q := Transaction{Sub: 0, Preds: []Predicate{{Attr: 1, Value: cfg.domainBase(0, 1)}}}
	if got := d.EstimateIterations(&q); got != cfg.TuplesPerSub {
		t.Errorf("non-keyed estimate = %d, want %d", got, cfg.TuplesPerSub)
	}
	// With the key attribute: global index frequency.
	keyVal := d.Subs[0].Tuples[0][cfg.KeyAttr]
	qk := Transaction{Sub: 0, Preds: []Predicate{{Attr: uint8(cfg.KeyAttr), Value: keyVal}}}
	if got := d.EstimateIterations(&qk); got != d.KeyFrequency(keyVal) {
		t.Errorf("keyed estimate = %d, want %d", got, d.KeyFrequency(keyVal))
	}
	// Absent key value: at least one probe.
	qa := Transaction{Sub: 0, Preds: []Predicate{{Attr: uint8(cfg.KeyAttr), Value: -99}}}
	if got := d.EstimateIterations(&qa); got != 1 {
		t.Errorf("absent-key estimate = %d, want 1", got)
	}
}

func TestEstimateCost(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	q := Transaction{Sub: 0, Preds: []Predicate{{Attr: 1, Value: cfg.domainBase(0, 1)}}}
	k := 3 * time.Microsecond
	want := time.Duration(cfg.TuplesPerSub) * k
	if got := d.EstimateCost(&q, k); got != want {
		t.Errorf("EstimateCost = %v, want %v", got, want)
	}
}

func TestExecuteKeyedVsScanAgree(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for i := int32(0); i < 300; i++ {
		q := d.GenTransaction(i, r)
		sub := d.Subs[q.Sub]
		res, err := d.Execute(sub, &q)
		if err != nil {
			t.Fatal(err)
		}
		// Re-count matches by brute force over the partition.
		want := 0
		for ti := range sub.Tuples {
			if sub.matches(ti, q.Preds) {
				want++
			}
		}
		if res.Matches != want {
			t.Fatalf("txn %d: Execute found %d matches, brute force %d", i, res.Matches, want)
		}
	}
}

func TestExecuteIterationsMatchEstimate(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	for i := int32(0); i < 300; i++ {
		q := d.GenTransaction(i, r)
		res, err := d.Execute(d.Subs[q.Sub], &q)
		if err != nil {
			t.Fatal(err)
		}
		if est := d.EstimateIterations(&q); res.Iterations != est {
			t.Fatalf("txn %d: executed %d iterations, host estimated %d", i, res.Iterations, est)
		}
	}
}

func TestExecuteWrongSubRejected(t *testing.T) {
	d, err := Generate(testConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	q := Transaction{ID: 1, Sub: 1, Preds: []Predicate{{Attr: 0, Value: 0}}}
	if _, err := d.Execute(d.Subs[0], &q); err == nil {
		t.Error("executing a transaction on the wrong sub-database succeeded")
	}
}

func TestHasKey(t *testing.T) {
	q := Transaction{Preds: []Predicate{{Attr: 2, Value: 5}, {Attr: 0, Value: 9}}}
	if v, ok := q.HasKey(0); !ok || v != 9 {
		t.Errorf("HasKey(0) = (%d,%v)", v, ok)
	}
	if _, ok := q.HasKey(5); ok {
		t.Error("HasKey(5) reported a key")
	}
}

// Property: generation is deterministic in the seed.
func TestGenerateDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := Config{SubDBs: 2, TuplesPerSub: 50, DomainSize: 10, KeyAttr: 0}
		a, err := Generate(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		b, err := Generate(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		for s := range a.Subs {
			for i := range a.Subs[s].Tuples {
				if a.Subs[s].Tuples[i] != b.Subs[s].Tuples[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExecuteScan(b *testing.B) {
	cfg := DefaultConfig()
	d, err := Generate(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	q := Transaction{Sub: 0, Preds: []Predicate{{Attr: 1, Value: cfg.domainBase(0, 1)}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Execute(d.Subs[0], &q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteKeyed(b *testing.B) {
	cfg := DefaultConfig()
	d, err := Generate(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	keyVal := d.Subs[0].Tuples[0][cfg.KeyAttr]
	q := Transaction{Sub: 0, Preds: []Predicate{{Attr: uint8(cfg.KeyAttr), Value: keyVal}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Execute(d.Subs[0], &q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConfigValidateIndexes(t *testing.T) {
	c := testConfig()
	c.ExtraIndexes = []int{3, 7}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid extra indexes rejected: %v", err)
	}
	c.ExtraIndexes = []int{NumAttrs}
	if err := c.Validate(); err == nil {
		t.Error("out-of-range index accepted")
	}
	c.ExtraIndexes = []int{3, 3}
	if err := c.Validate(); err == nil {
		t.Error("duplicate index accepted")
	}
	c.ExtraIndexes = []int{c.KeyAttr}
	if err := c.Validate(); err == nil {
		t.Error("re-indexing the key attribute accepted")
	}
}

func TestIndexedAttrs(t *testing.T) {
	c := testConfig()
	c.ExtraIndexes = []int{4, 9}
	got := c.IndexedAttrs()
	want := []int{c.KeyAttr, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("IndexedAttrs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IndexedAttrs = %v, want %v", got, want)
		}
	}
}

func TestSecondaryIndexUsed(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraIndexes = []int{5}
	d, err := Generate(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	// A predicate only on attribute 5 must probe the secondary index, not
	// scan the partition.
	val := d.Subs[0].Tuples[0][5]
	q := Transaction{Sub: 0, Preds: []Predicate{{Attr: 5, Value: val}}}
	est := d.EstimateIterations(&q)
	if est >= cfg.TuplesPerSub {
		t.Fatalf("secondary index not used: estimate %d", est)
	}
	if est != d.Frequency(5, val) {
		t.Errorf("estimate %d != global frequency %d", est, d.Frequency(5, val))
	}
	res, err := d.Execute(d.Subs[0], &q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != est {
		t.Errorf("executed %d iterations, estimated %d", res.Iterations, est)
	}
}

func TestAccessPathPicksCheapestIndex(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraIndexes = []int{5}
	d, err := Generate(cfg, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	// Pick a key value and a secondary value with different frequencies;
	// the estimator must choose the cheaper one.
	kv := d.Subs[0].Tuples[0][cfg.KeyAttr]
	sv := d.Subs[0].Tuples[0][5]
	q := Transaction{Sub: 0, Preds: []Predicate{
		{Attr: uint8(cfg.KeyAttr), Value: kv},
		{Attr: 5, Value: sv},
	}}
	est := d.EstimateIterations(&q)
	want := d.Frequency(cfg.KeyAttr, kv)
	if f := d.Frequency(5, sv); f < want {
		want = f
	}
	if est != want {
		t.Errorf("estimate %d, want the cheaper index %d", est, want)
	}
}

func TestRangePredicates(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	base := cfg.domainBase(0, cfg.KeyAttr)
	full := Predicate{Attr: uint8(cfg.KeyAttr), Range: true, Lo: base, Hi: base + Value(cfg.DomainSize) - 1}
	q := Transaction{Sub: 0, Preds: []Predicate{full}}
	// A full-domain range on the key matches every tuple of the partition.
	res, err := d.Execute(d.Subs[0], &q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != cfg.TuplesPerSub {
		t.Errorf("full-range matched %d of %d tuples", res.Matches, cfg.TuplesPerSub)
	}
	if est := d.EstimateIterations(&q); est != res.Iterations {
		t.Errorf("range estimate %d != executed %d", est, res.Iterations)
	}
	// A narrow range matches a subset and costs fewer iterations.
	narrow := Transaction{Sub: 0, Preds: []Predicate{
		{Attr: uint8(cfg.KeyAttr), Range: true, Lo: base, Hi: base + 2},
	}}
	nres, err := d.Execute(d.Subs[0], &narrow)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Iterations >= res.Iterations {
		t.Errorf("narrow range (%d iters) not cheaper than full (%d)", nres.Iterations, res.Iterations)
	}
}

func TestRangeOnUnindexedAttrScans(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	base := cfg.domainBase(0, 3)
	q := Transaction{Sub: 0, Preds: []Predicate{
		{Attr: 3, Range: true, Lo: base, Hi: base + 5},
	}}
	if est := d.EstimateIterations(&q); est != cfg.TuplesPerSub {
		t.Errorf("unindexed range estimate %d, want full scan %d", est, cfg.TuplesPerSub)
	}
	res, err := d.Execute(d.Subs[0], &q)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force count must agree.
	want := 0
	for i := range d.Subs[0].Tuples {
		v := d.Subs[0].Tuples[i][3]
		if v >= base && v <= base+5 {
			want++
		}
	}
	if res.Matches != want {
		t.Errorf("range matched %d, brute force %d", res.Matches, want)
	}
}

func TestGenTransactionRanges(t *testing.T) {
	cfg := testConfig()
	d, err := Generate(cfg, rng.New(25))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(26)
	ranges, points := 0, 0
	for i := int32(0); i < 400; i++ {
		q := d.GenTransactionOpts(i, r, TxnOptions{RangeProb: 0.5})
		for _, p := range q.Preds {
			if p.Range {
				ranges++
				if p.Lo > p.Hi {
					t.Fatalf("range predicate inverted: %+v", p)
				}
				if cfg.SubOfValue(p.Lo) != q.Sub || cfg.SubOfValue(p.Hi) != q.Sub {
					t.Fatalf("range outside the transaction's sub-database: %+v", p)
				}
			} else {
				points++
			}
		}
		// Estimate and execution must stay consistent for mixed predicates.
		res, err := d.Execute(d.Subs[q.Sub], &q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != d.EstimateIterations(&q) {
			t.Fatalf("txn %d: iterations %d != estimate %d", i, res.Iterations, d.EstimateIterations(&q))
		}
	}
	if ranges == 0 || points == 0 {
		t.Errorf("predicate mix degenerate: %d ranges, %d points", ranges, points)
	}
}

// TestPredicateSize pins the packed layout: three values, then the
// attribute byte and the range flag in the last word.
func TestPredicateSize(t *testing.T) {
	if got := unsafe.Sizeof(Predicate{}); got != 16 {
		t.Errorf("Predicate is %d bytes, want 16", got)
	}
}

// TestGenTransactionAllocations: a transaction costs its predicate slice
// and nothing else — the attribute draw needs no heap scratch.
func TestGenTransactionAllocations(t *testing.T) {
	d, err := Generate(testConfig(), rng.New(27))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(28)
	var id int32
	allocs := testing.AllocsPerRun(200, func() {
		id++
		_ = d.GenTransactionOpts(id, r, TxnOptions{RangeProb: 0.5})
	})
	if allocs != 1 {
		t.Errorf("GenTransactionOpts made %v allocations per transaction, want 1", allocs)
	}
}

// dbDigest hashes everything Generate draws and everything the indexes
// answer, field by field (never a memory layout): every tuple, the global
// index file's frequency for every value of every indexed attribute, and
// the Execute result of txns on their own sub-databases.
func dbDigest(d *Database, txns []Transaction) string {
	h := fnv.New64a()
	for _, sub := range d.Subs {
		for i, tup := range sub.Tuples {
			fmt.Fprintln(h, "tuple", sub.ID, i, tup)
		}
	}
	cfg := d.Config
	for _, a := range cfg.IndexedAttrs() {
		for s := 0; s < cfg.SubDBs; s++ {
			base := cfg.domainBase(s, a)
			for v := base; v < base+Value(cfg.DomainSize); v++ {
				fmt.Fprintln(h, "freq", a, v, d.Frequency(a, v))
			}
		}
	}
	for i := range txns {
		q := &txns[i]
		res, err := d.Execute(d.Subs[q.Sub], q)
		fmt.Fprintln(h, "exec", q.ID, res.Matches, res.Iterations, err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDatabaseGolden pins the database's draws and its indexes: a moved
// draw, a lost index position or a miscounted frequency changes the digest.
// The second case adds secondary indexes and range predicates.
func TestDatabaseGolden(t *testing.T) {
	extended := DefaultConfig()
	extended.ExtraIndexes = []int{3, 7}
	for _, c := range []struct {
		name      string
		cfg       Config
		rangeProb float64
		want      string
	}{
		{"default", DefaultConfig(), 0, "1ac67675c9f2fb2c"},
		{"extra-indexes-ranges", extended, 0.5, "90be135388adbe99"},
	} {
		r := rng.New(46)
		d, err := Generate(c.cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		txns := make([]Transaction, 500)
		for i := range txns {
			txns[i] = d.GenTransactionOpts(int32(i), r, TxnOptions{RangeProb: c.rangeProb})
		}
		if got := dbDigest(d, txns); got != c.want {
			t.Errorf("%s: database digest %s, want %s: a draw or an index entry moved", c.name, got, c.want)
		}
	}
}

// TestConfigValidateValueOverflow: a value space past int32 would wrap
// values negative and lose their sub-database. Only Validate runs here —
// generating such a database would allocate without bound.
func TestConfigValidateValueOverflow(t *testing.T) {
	for _, c := range []Config{
		{SubDBs: 10, TuplesPerSub: 1, DomainSize: 1 << 28},
		{SubDBs: 1, TuplesPerSub: 1, DomainSize: math.MaxInt32/NumAttrs + 1},
		{SubDBs: math.MaxInt32, TuplesPerSub: 1, DomainSize: 1},
		{SubDBs: 1 << 40, TuplesPerSub: 1, DomainSize: 1 << 40},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: a value space of %d×%d×%d accepted", c, c.SubDBs, NumAttrs, c.DomainSize)
		}
	}
	top := Config{SubDBs: 1, TuplesPerSub: 1, DomainSize: math.MaxInt32 / NumAttrs}
	if err := top.Validate(); err != nil {
		t.Errorf("largest value space rejected: %v", err)
	}
	if v := top.domainBase(0, NumAttrs-1) + Value(top.DomainSize-1); top.SubOfValue(v) != 0 || top.AttrOfValue(v) != NumAttrs-1 {
		t.Errorf("largest value %d maps to sub %d attr %d", v, top.SubOfValue(v), top.AttrOfValue(v))
	}
}

// TestGenerateAllocations guards the dense layout: a paper-sized database
// is a handful of backing slices, not a map entry per value.
func TestGenerateAllocations(t *testing.T) {
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Generate(cfg, rng.New(1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Errorf("Generate(DefaultConfig()) makes %v allocations, want at most 50", allocs)
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}
