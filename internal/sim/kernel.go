// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is the stand-in for the CSIM framework used by the paper: a virtual
// clock, an event heap ordered by (time, sequence) so that ties resolve
// deterministically, cancellable timers, and FCFS resources for modelling
// bandwidth-limited channels. A Kernel is single-threaded: all events run on
// the goroutine that calls Run, so model code needs no locking.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before reaching its horizon.
var ErrStopped = errors.New("simulation stopped")

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires (e.g. a protocol timeout that is
// disarmed when the awaited reply arrives).
type Event struct {
	at       time.Duration
	seq      uint64
	index    int // heap index; -1 once fired or cancelled
	fn       func()
	canceled bool
}

// Time reports the simulation time at which the event fires.
func (e *Event) Time() time.Duration { return e.at }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op. It reports whether the event
// was still pending.
func (e *Event) Cancel() bool {
	if e.canceled || e.index < 0 {
		return false
	}
	e.canceled = true
	return true
}

// Canceled reports whether Cancel was called before the event fired.
func (e *Event) Canceled() bool { return e.canceled }

// eventHeap orders events by (time, sequence).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Kernel is the simulation executive. The zero value is not usable; create
// one with NewKernel.
type Kernel struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	// stopped is set by Stop; Run clears it on entry.
	stopped bool
	// processed counts events that have fired, for diagnostics.
	processed uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() time.Duration { return k.now }

// Pending reports the number of scheduled (not yet fired) events, including
// cancelled events that have not been reaped from the heap.
func (k *Kernel) Pending() int { return len(k.events) }

// Processed reports how many events have fired since the kernel was created.
func (k *Kernel) Processed() uint64 { return k.processed }

// Schedule runs fn after delay of simulated time. A negative delay is an
// error in the model; it is clamped to zero so the event fires "now" (after
// currently pending same-time events).
func (k *Kernel) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute simulation time t. Times in the past are clamped to
// the current time.
func (k *Kernel) At(t time.Duration, fn func()) *Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	ev := &Event{at: t, seq: k.seq, fn: fn}
	heap.Push(&k.events, ev)
	return ev
}

// Stop halts Run after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the horizon is reached, the
// event heap drains, or Stop is called. The clock is left at the horizon
// when the heap drains early, so successive Run calls see monotonic time.
func (k *Kernel) Run(horizon time.Duration) error {
	if horizon < k.now {
		return fmt.Errorf("sim: horizon %v before current time %v", horizon, k.now)
	}
	k.stopped = false
	for len(k.events) > 0 {
		if k.stopped {
			return ErrStopped
		}
		next := k.events[0]
		if next.at > horizon {
			break
		}
		heap.Pop(&k.events)
		if next.canceled {
			continue
		}
		k.now = next.at
		k.processed++
		next.fn()
	}
	if k.stopped {
		return ErrStopped
	}
	if k.now < horizon {
		k.now = horizon
	}
	return nil
}

// Step fires exactly one pending event (skipping cancelled ones) and reports
// whether an event fired. It is mainly useful in tests.
func (k *Kernel) Step() bool {
	for len(k.events) > 0 {
		next, ok := heap.Pop(&k.events).(*Event)
		if !ok {
			return false
		}
		if next.canceled {
			continue
		}
		k.now = next.at
		k.processed++
		next.fn()
		return true
	}
	return false
}
