package search

// minHeap is a binary min-heap ordered by its less function — the
// best-first candidate list's container. It is not safe for concurrent use.
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// Len returns the number of items in the heap.
func (h *minHeap[T]) Len() int { return len(h.items) }

// Grow reserves capacity for n additional items, so a burst of Push calls
// (a search expansion, an event fan-out) reallocates at most once.
func (h *minHeap[T]) Grow(n int) {
	if n <= 0 || cap(h.items)-len(h.items) >= n {
		return
	}
	items := make([]T, len(h.items), len(h.items)+n)
	copy(items, h.items)
	h.items = items
}

// Push adds v to the heap.
func (h *minHeap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element. The second result is false
// when the heap is empty.
func (h *minHeap[T]) Pop() (T, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release reference for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top, true
}

func (h *minHeap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *minHeap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
