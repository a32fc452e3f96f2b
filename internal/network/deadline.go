package network

import "time"

// deadlineHeap is a binary min-heap of host registration indices keyed on
// each host's resample deadline. Keys live per host, so a host's deadline
// stays readable after it leaves the heap; queued[i] records whether i is
// in the heap. Equal deadlines pop in ascending index order.
type deadlineHeap struct {
	key    []time.Duration
	queued []bool
	heap   []int
}

// add registers host index len(key) and queues it under deadline.
func (h *deadlineHeap) add(deadline time.Duration) {
	h.key = append(h.key, 0)
	h.queued = append(h.queued, false)
	h.push(len(h.key)-1, deadline)
}

func (h *deadlineHeap) less(a, b int) bool {
	ka, kb := h.key[h.heap[a]], h.key[h.heap[b]]
	return ka < kb || (ka == kb && h.heap[a] < h.heap[b])
}

// push queues host i with the given deadline. i must not be queued.
func (h *deadlineHeap) push(i int, deadline time.Duration) {
	h.key[i] = deadline
	h.queued[i] = true
	h.heap = append(h.heap, i)
	for c := len(h.heap) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.less(c, p) {
			break
		}
		h.heap[c], h.heap[p] = h.heap[p], h.heap[c]
		c = p
	}
}

// popBefore removes and returns the host with the earliest deadline if that
// deadline is before now.
func (h *deadlineHeap) popBefore(now time.Duration) (int, bool) {
	if len(h.heap) == 0 || h.key[h.heap[0]] >= now {
		return 0, false
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, p) {
			break
		}
		h.heap[c], h.heap[p] = h.heap[p], h.heap[c]
		p = c
	}
	h.queued[top] = false
	return top, true
}
