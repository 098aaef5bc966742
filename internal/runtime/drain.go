package runtime

import (
	"context"
	"runtime/pprof"
	"sync"

	"repro/internal/obs"
)

// DrainCore is the one drain consumer body: Runtime runs one over its ring,
// fleet.Fleet one per shard queue. A chunk is one Take, then, on a hard stop,
// the whole chunk shed as shutdown drops; otherwise its Apply calls under one
// State acquisition, two stamps (dequeue and apply end, Shell.Nanos) that
// serve the apply-latency histogram and every sampled item's span, and one
// Settle. The owner supplies the queue's Take and Settle, its Apply and an
// item's span fields; nothing here waits on anything but Take.
type DrainCore[T any] struct {
	Shell   *Shell
	Metrics *Metrics
	Tracer  *obs.Tracer
	// State is held around each chunk's Apply calls (the runtime's mutex, the
	// fleet's shared side of its state lock), so no cycle scores mid-chunk.
	State sync.Locker
	// Drops, if set, also counts every item a hard stop sheds (a fleet
	// shard's own drop counter).
	Drops *Counter
	// Batch is the chunk size.
	Batch int
	// Take fills buf with a chunk and returns its length, blocking while the
	// queue is empty; 0 means the queue is closed and run dry.
	Take func(buf []T) int
	// Settle marks the chunk buf[:n] processed, applied or shed.
	Settle func(buf []T, n int)
	// Apply integrates one item into the owner's state; an error is counted
	// on ApplyErrors.
	Apply func(it *T) error
	// Span reads an item's trace fields: its stamp (0: not sampled), kind,
	// stream key and shard.
	Span func(it *T) (start int64, kind uint8, key string, shard int)
}

// Run drains until Take reports the queue run dry. The goroutine carries a
// pprof label, so CPU profiles tell the drain from the goroutine that runs
// cycles.
func (d *DrainCore[T]) Run() {
	pprof.Do(context.Background(), pprof.Labels("stage", "drain"),
		func(context.Context) { d.loop() })
}

func (d *DrainCore[T]) loop() {
	tr, m := d.Tracer, d.Metrics
	buf := make([]T, d.Batch)
	for {
		n := d.Take(buf)
		if n == 0 {
			return
		}
		chunk := buf[:n]
		// Hard stop: shed the chunk unapplied, so shutdown is prompt and the
		// depth gauges and drop counters settle on consistent final values
		// (ingested = applied + dropped).
		if d.Shell.HardStopped() {
			m.DroppedShutdown.Add(int64(n))
			if d.Drops != nil {
				d.Drops.Add(int64(n))
			}
			if tr != nil {
				now := tr.Now()
				for i := range chunk {
					if start, kind, key, shard := d.Span(&chunk[i]); start != 0 {
						tr.PublishDropped(kind, key, shard, start, start, now)
					}
				}
			}
			d.Settle(buf, n)
			continue
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
	}
}
