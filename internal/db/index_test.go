package db

import (
	"fmt"
	"math"
	"testing"

	"rtsads/internal/rng"
)

// mapIndex is a reference for the dense index: the nested maps Generate
// once built, rebuilt from the generated tuples, with the lookups written
// over them.
type mapIndex struct {
	cfg  Config
	freq map[int]map[Value]int
	subs []map[int]map[Value][]int32
}

func newMapIndex(d *Database) *mapIndex {
	m := &mapIndex{cfg: d.Config, freq: map[int]map[Value]int{}}
	for _, a := range d.Config.IndexedAttrs() {
		m.freq[a] = map[Value]int{}
	}
	for _, sub := range d.Subs {
		idx := map[int]map[Value][]int32{}
		for _, a := range d.Config.IndexedAttrs() {
			idx[a] = map[Value][]int32{}
		}
		for i, tup := range sub.Tuples {
			for a := range idx {
				idx[a][tup[a]] = append(idx[a][tup[a]], int32(i))
				m.freq[a][tup[a]]++
			}
		}
		m.subs = append(m.subs, idx)
	}
	return m
}

func (m *mapIndex) indexedCount(p Predicate) (int, bool) {
	freq, ok := m.freq[int(p.Attr)]
	if !ok {
		return 0, false
	}
	if !p.Range {
		return freq[p.Value], true
	}
	n := 0
	for v := p.Lo; v <= p.Hi; v++ {
		n += freq[v]
	}
	return n, true
}

func (m *mapIndex) accessPath(q *Transaction) (pred, iterations int) {
	pred, iterations = -1, m.cfg.TuplesPerSub
	for i, p := range q.Preds {
		n, ok := m.indexedCount(p)
		if !ok {
			continue
		}
		n = max(n, 1)
		if n < iterations || (n == iterations && pred == -1) {
			pred, iterations = i, n
		}
	}
	return pred, iterations
}

func (m *mapIndex) execute(s *SubDB, q *Transaction) ExecResult {
	predIdx, _ := m.accessPath(q)
	var candidates []int32
	if predIdx < 0 {
		for i := range s.Tuples {
			candidates = append(candidates, int32(i))
		}
	} else {
		p := q.Preds[predIdx]
		idx := m.subs[s.ID][int(p.Attr)]
		if !p.Range {
			candidates = idx[p.Value]
		}
		for v := p.Lo; p.Range && v <= p.Hi; v++ {
			candidates = append(candidates, idx[v]...)
		}
	}
	res := ExecResult{Iterations: max(len(candidates), 1)}
	for _, i := range candidates {
		if s.matches(int(i), q.Preds) {
			res.Matches++
		}
	}
	return res
}

// randomConfig draws a small database shape, with or without secondary
// indexes.
func randomConfig(r *rng.Source, extra bool) Config {
	cfg := Config{
		SubDBs:       r.IntRange(1, 5),
		TuplesPerSub: r.IntRange(1, 300),
		DomainSize:   r.IntRange(1, 30),
		KeyAttr:      r.Intn(NumAttrs),
	}
	if extra {
		for _, a := range r.Perm(NumAttrs)[:r.IntRange(1, 4)] {
			if a != cfg.KeyAttr {
				cfg.ExtraIndexes = append(cfg.ExtraIndexes, a)
			}
		}
	}
	return cfg
}

// probeTxns returns transactions the generator never draws: values outside
// every domain, another attribute's or another sub-database's values, and
// ranges that straddle domains or lie past the value space.
func probeTxns(cfg Config, r *rng.Source) []Transaction {
	top := Value(cfg.SubDBs * NumAttrs * cfg.DomainSize)
	var txns []Transaction
	for i := 0; i < 200; i++ {
		sub := r.Intn(cfg.SubDBs)
		var preds []Predicate
		for j := r.IntRange(1, 3); j > 0; j-- {
			a := r.Intn(NumAttrs)
			v := Value(r.Intn(int(top)+2*cfg.DomainSize)) - Value(cfg.DomainSize)
			switch r.Intn(4) {
			case 0: // any value, often another attribute's
				preds = append(preds, Predicate{Attr: uint8(a), Value: v})
			case 1: // a range of any width, anywhere
				hi := v + Value(r.Intn(3*cfg.DomainSize))
				preds = append(preds, Predicate{Attr: uint8(a), Range: true, Lo: v, Hi: hi})
			case 2: // a range around this sub-database's domain
				base := cfg.domainBase(sub, a)
				lo := base - Value(r.Intn(cfg.DomainSize+1))
				hi := base + Value(r.Intn(2*cfg.DomainSize))
				preds = append(preds, Predicate{Attr: uint8(a), Range: true, Lo: lo, Hi: hi})
			default: // a value of the attribute in another sub-database
				other := cfg.domainBase(r.Intn(cfg.SubDBs), a)
				preds = append(preds, Predicate{Attr: uint8(a), Value: other + Value(r.Intn(cfg.DomainSize))})
			}
		}
		txns = append(txns, Transaction{ID: int32(i), Sub: sub, Preds: preds})
	}
	return txns
}

// TestDenseIndexMatchesMaps checks the dense index against the map
// reference over random shapes: every frequency lookup, every estimate and
// every Execute result, for drawn transactions and for probes the generator
// never makes.
func TestDenseIndexMatchesMaps(t *testing.T) {
	r := rng.New(4646)
	for trial := 0; trial < 40; trial++ {
		extra := trial%2 == 1
		rangeProb := float64(trial/2%2) * 0.5
		cfg := randomConfig(r, extra)
		name := fmt.Sprintf("trial %d %+v rangeProb=%v", trial, cfg, rangeProb)
		d, err := Generate(cfg, r.Split())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := newMapIndex(d)

		top := Value(cfg.SubDBs * NumAttrs * cfg.DomainSize)
		probes := []Value{math.MinInt32, -1, top, top + 1, math.MaxInt32}
		for v := Value(0); v < top; v++ {
			probes = append(probes, v)
		}
		for a := -1; a <= NumAttrs; a++ {
			for _, v := range probes {
				if got, want := d.Frequency(a, v), ref.freq[a][v]; got != want {
					t.Fatalf("%s: Frequency(%d, %d) = %d, reference %d", name, a, v, got, want)
				}
			}
		}
		for _, v := range probes {
			if got, want := d.KeyFrequency(v), ref.freq[cfg.KeyAttr][v]; got != want {
				t.Fatalf("%s: KeyFrequency(%d) = %d, reference %d", name, v, got, want)
			}
		}

		txns := probeTxns(cfg, r)
		for i := int32(0); i < 200; i++ {
			txns = append(txns, d.GenTransactionOpts(i, r, TxnOptions{RangeProb: rangeProb}))
		}
		for i := range txns {
			q := &txns[i]
			_, want := ref.accessPath(q)
			if got := d.EstimateIterations(q); got != want {
				t.Fatalf("%s: EstimateIterations(%+v) = %d, reference %d", name, q.Preds, got, want)
			}
			got, err := d.Execute(d.Subs[q.Sub], q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if wantRes := ref.execute(d.Subs[q.Sub], q); got != wantRes {
				t.Fatalf("%s: Execute(%+v) = %+v, reference %+v", name, q.Preds, got, wantRes)
			}
		}
	}
}
