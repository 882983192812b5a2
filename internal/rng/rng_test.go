package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not mirror the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split stream mirrored parent %d times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %f", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	s := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(13)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", f)
		}
	}
}

func TestBool(t *testing.T) {
	s := New(21)
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if got := float64(hits) / draws; math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %f", got)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(31)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %f", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("ExpFloat64 mean = %f, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(41)
	var sum, sumSq float64
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("NormFloat64 mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("NormFloat64 variance = %f, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		a, b := New(seed), New(seed)
		want := a.Perm(n)
		got := make([]int, n)
		for i := range got {
			got[i] = -7 // stale scratch must not leak through
		}
		b.PermInto(got)
		// Draw for draw: the same permutation, and both streams in step.
		return slices.Equal(got, want) && a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChoose(t *testing.T) {
	s := New(51)
	got := s.Choose(10, 4)
	if len(got) != 4 {
		t.Fatalf("Choose returned %d elements", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Choose produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestChoosePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choose(3, 4) did not panic")
		}
	}()
	New(1).Choose(3, 4)
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(61)
	data := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range data {
		sum += v
	}
	s.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	got := 0
	for _, v := range data {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed multiset sum: %d != %d", got, sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := New(71)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

func TestIntRangePanicsWhenInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntRange(5,3) did not panic")
		}
	}()
	New(1).IntRange(5, 3)
}

// refMulHiLo is the portable 128-bit multiply Intn used before it moved to
// math/bits.Mul64: the reference the intrinsic must reproduce.
func refMulHiLo(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask32+aLo*bHi)>>32
	return hi, lo
}

// refIntn is Intn's reference arithmetic: Lemire's rejection loop over
// refMulHiLo, testing the wrap zone on every draw. It also counts the
// rejected draws.
func refIntn(s *Source, n int, rejected *int) int {
	un := uint64(n)
	for {
		hi, lo := refMulHiLo(s.Uint64(), un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
		*rejected++
	}
}

// TestIntnMatchesReference pins Intn's draws to the reference arithmetic,
// rejections included: every workload is a function of these draws.
// n = 1<<62+1 rejects about a quarter of its draws, so it drives the slow
// path.
func TestIntnMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1000, 1<<62 + 1, math.MaxInt} {
		got, ref := New(uint64(n)), New(uint64(n))
		rejected := 0
		for i := 0; i < 10000; i++ {
			if g, w := got.Intn(n), refIntn(ref, n, &rejected); g != w {
				t.Fatalf("Intn(%d) draw %d = %d, reference %d", n, i, g, w)
			}
		}
		if got.Uint64() != ref.Uint64() {
			t.Fatalf("Intn(%d): streams out of step after 10000 draws", n)
		}
		if n == 1<<62+1 && rejected < 1000 {
			t.Errorf("Intn(%d) rejected %d of 10000 draws; the slow path went untested", n, rejected)
		}
	}
	for _, v := range []uint64{0, 1, math.MaxUint64, 1 << 63, 0xdeadbeefcafef00d} {
		for _, w := range []uint64{0, 1, 3, math.MaxUint64, 1<<62 + 1} {
			hi, lo := bits.Mul64(v, w)
			if rh, rl := refMulHiLo(v, w); hi != rh || lo != rl {
				t.Errorf("Mul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", v, w, hi, lo, rh, rl)
			}
		}
	}
}
