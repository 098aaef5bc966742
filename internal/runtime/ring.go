package runtime

import (
	"context"
	"errors"
	"sync"
)

// ErrRejected is returned by Ring.Push under OverflowDropNewest when the
// ring is full: the pushed value was not admitted. Wrappers translate it
// into their drop accounting (the runtime and fleet both count the event
// as ingested-then-dropped, so ingested = applied + dropped keeps holding).
var ErrRejected = errors.New("runtime: event rejected by overflow policy")

// Ring is the single-tenant runtime's bounded ingest queue: one FIFO at its
// full capacity under one mutex, drained in chunks by one consumer and by
// whichever goroutine helps it (Runtime.Barrier; internal/fleet puts one
// FIFO per tenant under a shard lock instead, on the same Waiters protocol).
// A channel send costs a scheduler round-trip per event; the ring amortizes
// one lock acquisition over an entire chunk and keeps the producer fast path
// to one short critical section with no atomics.
//
// Concurrency contract: any number of producers may Push; exactly one
// consumer goroutine waits for values (Wait, or Drain, which is Wait and
// Take). Take never blocks and may be called from any goroutine: the values
// come out in FIFO order, and a caller that applies them from more than one
// goroutine keeps that order itself (DrainCore's drain lock). Hooks and
// policy are fixed before the first Push. Push requires a non-nil ctx (used
// only by the Block policy).
//
// Overflow semantics:
//
//   - Block: Push parks until the consumer frees space or ctx is
//     canceled (ctx.Err() returned, value not admitted) — see Waiters.
//   - DropOldest: the oldest buffered value is evicted (OnEvict hook) to
//     make room; Push itself never fails. Eviction is exact — it happens
//     under the same lock as admission, with no racing consumer.
//   - DropNewest: Push returns ErrRejected and the value is not admitted.
type Ring[T any] struct {
	// OnEvict, when set, runs under the ring lock for every value evicted
	// by DropOldest, in eviction order. It must be fast and must not
	// touch the ring.
	OnEvict func(T)

	mu       sync.Mutex
	notEmpty sync.Cond
	fifo     FIFO[T]
	waiters  Waiters
	policy   OverflowPolicy
	closed   bool
	pending  int64 // admitted but not yet Settle()d — the Barrier count
	waiting  bool  // consumer parked in Wait
}

// NewRing returns a ring holding up to capacity values of T with the
// given overflow policy. Capacity must be >= 1.
func NewRing[T any](capacity int, policy OverflowPolicy) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	r := &Ring[T]{fifo: NewFIFO[T](capacity, capacity), policy: policy}
	r.notEmpty.L = &r.mu
	return r
}

// Push offers v to the ring. It returns nil when the value was admitted,
// ErrClosed when the ring was already closed, ErrRejected under
// DropNewest on a full ring, or ctx.Err() when a Block wait was canceled.
// Values travel by value — producers stamp anything the drop/trace
// accounting needs before pushing, so a rejected value is fully described
// by the caller's own copy.
func (r *Ring[T]) Push(ctx context.Context, v T) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	for r.fifo.Full() {
		switch r.policy {
		case DropNewest:
			r.mu.Unlock()
			return ErrRejected
		case DropOldest:
			old := r.fifo.Pop()
			r.pending--
			if r.OnEvict != nil {
				r.OnEvict(old)
			}
		default: // Block
			if err := r.waiters.Park(ctx, &r.mu); err != nil {
				if r.waiting {
					// The consumer may be parked waiting for either data
					// or the last blocked pusher to resolve at close.
					r.notEmpty.Signal()
				}
				r.mu.Unlock()
				return err
			}
			// Loop: another producer may have taken the freed slot.
		}
	}
	r.fifo.Push(&v)
	r.pending++
	if r.waiting {
		r.notEmpty.Signal()
	}
	r.mu.Unlock()
	return nil
}

// Wait blocks while the ring is empty. It reports false only when the ring
// is closed, empty, and no pusher is parked — the consumer's signal to exit.
// Consumer only.
func (r *Ring[T]) Wait() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.fifo.Len() == 0 {
		if r.closed && r.waiters.Parked() == 0 {
			return false
		}
		r.waiting = true
		r.notEmpty.Wait()
		r.waiting = false
	}
	return true
}

// Take copies up to len(buf) of the oldest buffered values into buf and
// returns how many, without blocking: 0 means the ring is empty.
func (r *Ring[T]) Take(buf []T) int {
	r.mu.Lock()
	n := r.fifo.PopInto(buf)
	if n > 0 {
		r.waiters.Wake(n)
	}
	r.mu.Unlock()
	return n
}

// Drain is Wait and Take in one call: it takes a chunk into buf, blocking
// while the ring is empty, and returns 0 only when Wait reports the ring
// run dry. Consumer only.
func (r *Ring[T]) Drain(buf []T) int {
	for {
		if n := r.Take(buf); n > 0 {
			return n
		}
		if !r.Wait() {
			return 0
		}
	}
}

// Settle marks n drained values fully processed (applied or shed),
// releasing them from the Pending count that Barrier watches.
func (r *Ring[T]) Settle(n int) {
	r.mu.Lock()
	r.pending -= int64(n)
	r.mu.Unlock()
}

// Pending reports how many admitted values have not been Settled yet.
// Zero means every value admitted before the call has been fully
// processed.
func (r *Ring[T]) Pending() int64 {
	r.mu.Lock()
	p := r.pending
	r.mu.Unlock()
	return p
}

// Depth reports how many values are buffered right now.
func (r *Ring[T]) Depth() int {
	r.mu.Lock()
	d := r.fifo.Len()
	r.mu.Unlock()
	return d
}

// Capacity reports the fixed ring capacity.
func (r *Ring[T]) Capacity() int { return r.fifo.Cap() }

// Close marks the ring closed: new pushes fail with ErrClosed, parked
// pushes complete as space frees, and Wait reports false once everything in
// flight has drained. Idempotent.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.mu.Unlock()
}
