// Package sim provides a small deterministic discrete-event simulation
// kernel: a virtual clock and a time-ordered event queue. The telecom SCP
// simulator and the countermeasure experiments run on top of it.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order (FIFO tie-break), so a seeded simulation replays identically.
//
// The event queue is a hand-rolled typed binary heap rather than
// container/heap: the interface-based API boxes every push/pop through
// interface{} and forces a virtual call per comparison, which shows up in
// year-long simulations with millions of events. Popped events are recycled
// through a freelist, so steady-state scheduling performs no allocation.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// ErrSchedule is wrapped by scheduling errors.
var ErrSchedule = errors.New("sim: invalid schedule")

type event struct {
	time   float64
	seq    int64 // FIFO tie-break for simultaneous events
	action func()
}

// eventHeap is a typed min-heap on (time, seq) with a freelist of spent
// event records.
type eventHeap struct {
	items []*event
	free  []*event
}

func (h *eventHeap) len() int { return len(h.items) }

// less orders by time, breaking ties by scheduling sequence.
func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push enqueues an event, drawing the record from the freelist when one is
// available.
func (h *eventHeap) push(t float64, seq int64, action func()) {
	var e *event
	if n := len(h.free); n > 0 {
		e = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
	} else {
		e = &event{}
	}
	e.time, e.seq, e.action = t, seq, action
	h.items = append(h.items, e)
	h.siftUp(len(h.items) - 1)
}

// pop removes and returns the earliest event. The caller must hand the
// record back via release once the action has run.
func (h *eventHeap) pop() *event {
	n := len(h.items)
	e := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.siftDown(0)
	}
	return e
}

// release returns a spent record to the freelist, dropping its action
// reference so the closure can be collected.
func (h *eventHeap) release(e *event) {
	e.action = nil
	h.free = append(h.free, e)
}

func (h *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now   float64
	queue eventHeap
	seq   int64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.len() }

// Schedule enqueues action to run after delay ≥ 0 units of virtual time.
func (e *Engine) Schedule(delay float64, action func()) error {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("%w: delay %g", ErrSchedule, delay)
	}
	return e.ScheduleAt(e.now+delay, action)
}

// ScheduleAt enqueues action to run at absolute virtual time t ≥ Now().
func (e *Engine) ScheduleAt(t float64, action func()) error {
	if action == nil {
		return fmt.Errorf("%w: nil action", ErrSchedule)
	}
	if t < e.now || math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("%w: time %g before now %g", ErrSchedule, t, e.now)
	}
	e.seq++
	e.queue.push(t, e.seq, action)
	return nil
}

// Run processes events in time order until the clock reaches `until` or
// the queue drains. Events scheduled exactly at `until` are processed. It
// returns the number of events executed, and leaves the clock at `until`.
func (e *Engine) Run(until float64) int {
	n := 0
	for e.queue.len() > 0 {
		if e.queue.items[0].time > until {
			break
		}
		next := e.queue.pop()
		e.now = next.time
		action := next.action
		e.queue.release(next)
		action()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Every schedules a recurring action with the given period, starting after
// one period. The action receives the engine so it can cancel by returning
// false. Recurrence stops when the callback returns false.
func (e *Engine) Every(period float64, action func() bool) error {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return fmt.Errorf("%w: period %g", ErrSchedule, period)
	}
	var tick func()
	tick = func() {
		if !action() {
			return
		}
		// Scheduling from inside an event cannot fail: delay is positive
		// and the clock is valid.
		_ = e.Schedule(period, tick)
	}
	return e.Schedule(period, tick)
}
