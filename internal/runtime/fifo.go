package runtime

import (
	"context"
	"slices"
	"sync"
)

// FIFO is the bounded circular buffer under every ingest queue: Ring
// allocates it at its cap, a fleet tenant queue starts empty and lets it
// grow to its cap. It is not synchronized — the owner's lock guards it.
type FIFO[T any] struct {
	buf  []T
	head int // index of the oldest value
	n    int
	max  int
}

// NewFIFO returns a buffer that holds up to max values, with room for the
// first initial of them allocated now.
func NewFIFO[T any](initial, max int) FIFO[T] {
	return FIFO[T]{buf: make([]T, initial), max: max}
}

// Len reports how many values are buffered.
func (f *FIFO[T]) Len() int { return f.n }

// Cap reports how many values the buffer may hold.
func (f *FIFO[T]) Cap() int { return f.max }

// Full reports whether a Push would exceed the cap.
func (f *FIFO[T]) Full() bool { return f.n >= f.max }

// Push appends *v. The caller has checked !Full(). The value comes by
// pointer because the call is not inlined and queued events are over a
// hundred bytes: by value each push would copy it twice.
func (f *FIFO[T]) Push(v *T) { *f.PushSlot() = *v }

// PushSlot appends a zero value and returns its slot for the caller to fill
// in place, before it lets go of the owner's lock — what Push does for a
// value that exists already, without that value having to. The caller has
// checked !Full().
func (f *FIFO[T]) PushSlot() *T {
	if f.n == len(f.buf) {
		f.grow()
	}
	tail := f.head + f.n
	if tail >= len(f.buf) {
		tail -= len(f.buf)
	}
	f.n++
	return &f.buf[tail]
}

// grow doubles a full buffer, up to the cap.
func (f *FIFO[T]) grow() {
	size := 2 * len(f.buf)
	if size < 8 {
		size = 8
	}
	if size > f.max {
		size = f.max
	}
	buf := make([]T, size)
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// Pop removes and returns the oldest value. The caller has checked Len() > 0.
func (f *FIFO[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
	return v
}

// PopInto moves the oldest min(len(out), Len()) values into out, in order,
// and returns how many. Vacated slots are zeroed so the buffer does not pin
// what it no longer holds.
func (f *FIFO[T]) PopInto(out []T) int {
	k := f.n
	if k > len(out) {
		k = len(out)
	}
	first := len(f.buf) - f.head
	if first > k {
		first = k
	}
	copy(out[:first], f.buf[f.head:f.head+first])
	clear(f.buf[f.head : f.head+first])
	copy(out[first:k], f.buf[:k-first])
	clear(f.buf[:k-first])
	f.head += k
	if f.head >= len(f.buf) {
		f.head -= len(f.buf)
	}
	f.n -= k
	return k
}

// Waiters is the Block-policy half of a bounded queue: the producers parked
// for room, in arrival order. Like FIFO it lives under its owner's lock. The
// protocol its owners follow:
//
//   - A push that finds no room Parks. Woken, it holds the lock again and
//     re-checks from the top — room, but also everything that may have
//     changed while it slept — and parks again if another producer got there
//     first.
//   - Whatever may let a parked push proceed, or must turn it away, wakes
//     the pushes it may concern; a wake-up with nothing to do costs one
//     re-check. Where room is one number (Ring), a drain that freed n slots
//     wakes the n longest parked. Where it is not (a fleet shard: a push
//     needs room in its tenant's queue and in the shard's budget), a drain
//     wakes them all — the n longest parked may be the ones still blocked.
//   - A park whose ctx is canceled returns ctx.Err(). If a wake had already
//     reached it, it hands the wake on, so the freed slot is not lost to a
//     producer that left.
//   - The consumer exits only when the queue is closed, empty, and Parked()
//     is 0: a push parked before close still lands. Whoever leaves a closed
//     queue without pushing signals the consumer, which may be waiting for
//     exactly that.
type Waiters struct {
	chans  []chan struct{}
	parked int
}

// Park blocks the caller until a Wake reaches it or ctx is canceled. It is
// called with mu held, releases it while blocked, and returns with it held.
func (w *Waiters) Park(ctx context.Context, mu *sync.Mutex) error {
	ch := make(chan struct{})
	w.chans = append(w.chans, ch)
	w.parked++
	mu.Unlock()
	var err error
	select {
	case <-ch:
		mu.Lock()
	case <-ctx.Done():
		mu.Lock()
		err = ctx.Err()
		select {
		case <-ch:
			w.Wake(1)
		default:
			i := slices.Index(w.chans, ch)
			w.chans = slices.Delete(w.chans, i, i+1)
		}
	}
	w.parked--
	return err
}

// Parked reports how many producers are inside Park, counting those a Wake
// has released but that have not got the lock back yet.
func (w *Waiters) Parked() int { return w.parked }

// Wake releases up to n parked producers, longest-parked first.
func (w *Waiters) Wake(n int) {
	if n > len(w.chans) {
		n = len(w.chans)
	}
	for _, ch := range w.chans[:n] {
		close(ch)
	}
	w.chans = slices.Delete(w.chans, 0, n)
}

// WakeAll releases every parked producer.
func (w *Waiters) WakeAll() { w.Wake(len(w.chans)) }
