package runtime

import (
	"context"
	"runtime/pprof"
	"sync"
)

// DrainCore is the one drain body: Runtime runs one over its ring,
// fleet.Fleet one per shard queue. A chunk is one Take, then, on a hard stop,
// the whole chunk shed as shutdown drops; otherwise its Apply calls under one
// State acquisition, two stamps (dequeue and apply end, Shell.Nanos) that
// serve the apply-latency histogram and every sampled item's span, and one
// Settle. The owner supplies the queue's Wait, Take and Settle, its Apply and
// an item's span fields.
//
// Who drains. The consumer goroutine (Run) does, and so may any goroutine
// that calls Help — Runtime.Barrier applies the backlog it waits for itself
// instead of waking the consumer and spinning. The drain lock is held from
// Take to Settle, so chunks apply in queue order whoever takes them, and
// the chunk buffer, which only the lock's holder touches, is the one both
// use. A helped chunk runs on the helper's goroutine, outside Run's pprof
// label.
type DrainCore[T any] struct {
	Shell   *Shell
	Metrics *Metrics
	// Gate is the pipeline's ingest gate: its tracer gets the chunks' spans,
	// and a hard stop publishes what it sheds through it.
	Gate *Gate
	// State is held around each chunk's Apply calls (the runtime's mutex, the
	// fleet's shared side of its state lock), so no cycle scores mid-chunk.
	State sync.Locker
	// Drops, if set, also counts every item a hard stop sheds (a fleet
	// shard's own drop counter).
	Drops *Counter
	// Batch is the chunk size.
	Batch int
	// Wait blocks while the queue is empty and reports false once it is
	// closed, empty and no push is parked: the consumer's signal to exit. It
	// takes no drain lock; only the consumer calls it.
	Wait func() bool
	// Take fills buf with a chunk of the oldest queued items and returns its
	// length without blocking; 0 means nothing is queued.
	Take func(buf []T) int
	// Settle marks the chunk buf[:n] processed, applied or shed.
	Settle func(buf []T, n int)
	// Apply integrates one item into the owner's state; an error is counted
	// on ApplyErrors.
	Apply func(it *T) error
	// Span reads an item's trace fields: its stamp (0: not sampled), kind,
	// stream key and shard.
	Span func(it *T) (start int64, kind uint8, key string, shard int)

	mu  sync.Mutex // the drain lock, held from Take to Settle
	buf []T        // the chunk, touched only under mu
}

// Run is the consumer: it drains until Wait reports the queue run dry. The
// goroutine carries a pprof label, so CPU profiles tell the drain from the
// goroutine that runs cycles.
func (d *DrainCore[T]) Run() {
	pprof.Do(context.Background(), pprof.Labels("stage", "drain"),
		func(context.Context) { d.loop() })
}

// loop waits only when a take found nothing: under a backlog a chunk costs
// one queue-lock round trip.
func (d *DrainCore[T]) loop() {
	for {
		if d.chunk(d.Batch) > 0 {
			continue
		}
		if !d.Wait() {
			// A helper may hold the queue's last chunk, taken but not yet
			// applied: wait it out, so the owner's final cycle, which runs
			// once every consumer has returned, sees it applied.
			d.mu.Lock()
			d.mu.Unlock()
			return
		}
	}
}

// Help drains on the calling goroutine, in queue order with the consumer's
// chunks, at most limit items — what the owner counted queued when it
// called — so live ingest cannot keep it running. It returns early once the
// queue is empty, and as soon as it finds the drain lock taken: the consumer
// holding it is draining already, and waiting for it to let go would cost
// the helper a park and the consumer a wake-up, more than a few events'
// Apply calls are worth.
func (d *DrainCore[T]) Help(limit int) {
	for limit > 0 && d.mu.TryLock() {
		n := d.chunkLocked(min(limit, d.Batch))
		d.mu.Unlock()
		if n == 0 {
			return
		}
		limit -= n
	}
}

// chunk takes up to limit items under the drain lock and applies or sheds
// them; it returns how many it took.
func (d *DrainCore[T]) chunk(limit int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.chunkLocked(limit)
}

// chunkLocked is chunk with the drain lock held.
func (d *DrainCore[T]) chunkLocked(limit int) int {
	if d.buf == nil {
		d.buf = make([]T, d.Batch)
	}
	buf := d.buf
	n := d.Take(buf[:limit])
	if n == 0 {
		return 0
	}
	tr, m := d.Gate.tracer, d.Metrics
	chunk := buf[:n]
	// Hard stop: shed the chunk unapplied, so shutdown is prompt and the
	// depth gauges and drop counters settle on consistent final values
	// (ingested = applied + dropped).
	if d.Shell.HardStopped() {
		m.DroppedShutdown.Add(int64(n))
		if d.Drops != nil {
			d.Drops.Add(int64(n))
		}
		for i := range chunk {
			d.Gate.Dropped(d.Span(&chunk[i]))
		}
		d.Settle(buf, n)
		return n
	}
	dequeued := d.Shell.Nanos()
	d.State.Lock()
	for i := range chunk {
		if err := d.Apply(&chunk[i]); err != nil {
			m.ApplyErrors.Inc()
		}
	}
	d.State.Unlock()
	applied := d.Shell.Nanos()
	m.Applied.Add(int64(n))
	// One latency observation per chunk: the amortized unit of work.
	m.ApplyLatency.Observe(float64(applied-dequeued) / 1e9)
	if tr != nil {
		for i := range chunk {
			if start, kind, key, shard := d.Span(&chunk[i]); start != 0 {
				tr.PublishApplied(kind, key, shard, start, start, dequeued, applied)
			}
		}
	}
	d.Settle(buf, n)
	return n
}
