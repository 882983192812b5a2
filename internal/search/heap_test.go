package search

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := newHeap(func(a, b int) bool { return a < b })
	in := []int{5, 3, 8, 1, 9, 2, 7, 1, 0}
	for _, v := range in {
		h.Push(v)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	want := append([]int(nil), in...)
	sort.Ints(want)
	for i, w := range want {
		got, ok := h.Pop()
		if !ok || got != w {
			t.Fatalf("pop %d = (%d, %v), want %d", i, got, ok, w)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Error("pop from empty heap succeeded")
	}
}

// Property: popping everything from a heap yields a sorted sequence.
func TestHeapSortsProperty(t *testing.T) {
	f := func(in []int16) bool {
		h := newHeap(func(a, b int16) bool { return a < b })
		for _, v := range in {
			h.Push(v)
		}
		prev := int16(-32768)
		for h.Len() > 0 {
			v, _ := h.Pop()
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeapMaxOrdering(t *testing.T) {
	// A "max-heap" via inverted less must pop descending.
	h := newHeap(func(a, b int) bool { return a > b })
	for _, v := range []int{1, 5, 3} {
		h.Push(v)
	}
	want := []int{5, 3, 1}
	for _, w := range want {
		if got, _ := h.Pop(); got != w {
			t.Fatalf("max-heap pop = %d, want %d", got, w)
		}
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	h := newHeap(func(a, c int) bool { return a < c })
	for i := 0; i < b.N; i++ {
		h.Push(i ^ 0x5555)
		if h.Len() > 1024 {
			h.Pop()
		}
	}
}
