package runtime

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/obs"
)

// ErrRuntime is wrapped by all package errors.
var ErrRuntime = errors.New("runtime: invalid operation")

// ErrClosed is returned by Ingest after shutdown has begun.
var ErrClosed = fmt.Errorf("%w: runtime closed", ErrRuntime)

// OverflowPolicy selects what a full ingest queue does with new events.
type OverflowPolicy int

const (
	// Block applies backpressure: Ingest waits for queue space (or
	// context cancellation). No event is ever dropped.
	Block OverflowPolicy = iota
	// DropOldest evicts the oldest queued event to admit the new one —
	// fresh evidence beats stale evidence for online prediction.
	DropOldest
	// DropNewest rejects the incoming event, protecting the backlog —
	// first-come-first-served under pressure.
	DropNewest
)

// String returns the flag token for p.
func (p OverflowPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParsePolicy inverts String.
func ParsePolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	case "drop-newest":
		return DropNewest, nil
	default:
		return 0, fmt.Errorf("%w: unknown overflow policy %q", ErrRuntime, s)
	}
}

// EventKind discriminates the two monitoring inputs of the paper's case
// study: detected-error reports and periodic SAR-style samples.
type EventKind int

const (
	// KindError is a detected-error report (Sect. 3.1, stage 4).
	KindError EventKind = iota
	// KindSample is one periodic monitoring-variable sample.
	KindSample
)

// Event is one unit of monitoring ingest.
type Event struct {
	Kind EventKind
	// Tenant optionally labels the monitored instance the event came from
	// in multi-tenant deployments (internal/fleet). DefaultShardKey
	// prefixes the routing key with it, so each tenant's error stream and
	// per-variable sample streams stay independently ordered. Empty for
	// single-tenant pipelines — routing is then unchanged.
	Tenant string
	// Time is the domain timestamp [s] (simulation or epoch seconds —
	// whatever clock the runtime's layers evaluate against).
	Time float64
	// Error is set for KindError.
	Error eventlog.Event
	// Variable/Value are set for KindSample.
	Variable string
	Value    float64

	// Trace stamps on the tracer's monotonic clock, carried through the
	// pipeline so the whole span record is published with a single lock
	// acquisition at apply (or drop) time. Only events admitted by the
	// tracer's sampling gate carry stamps — unsampled events skip every
	// clock read.
	traceSampled bool
	traceStart   int64 // Ingest entry
	traceOffered int64 // queue offer (start of queue residency)
}

// traceKey is the routing-key label a trace retains for rendering.
func traceKey(ev Event) string {
	key := ev.Variable
	if ev.Kind == KindError {
		key = "errors"
	}
	if ev.Tenant != "" {
		return ev.Tenant + "/" + key
	}
	return key
}

// queue is the bounded ingest stage: a Ring plus this runtime's drop/trace
// accounting (internal/fleet schedules per-tenant FIFOs instead and keeps its
// own accounting; the two share the buffer and the Block protocol, see
// FIFO and Waiters). Trace sampling and stamping happen on the producer
// side (Runtime.Ingest), so every event — admitted, rejected or evicted —
// already carries the stamps its drop record needs when it reaches the ring.
type queue struct {
	ring    *Ring[Event]
	metrics *Metrics
	drops   *Counter    // per-shard drop counter (any reason); may be nil
	tracer  *obs.Tracer // nil disables span tracing
	shard   int
}

func newQueue(capacity int, policy OverflowPolicy, m *Metrics, drops *Counter, tracer *obs.Tracer, shard int) *queue {
	q := &queue{ring: NewRing[Event](capacity, policy), metrics: m, drops: drops, tracer: tracer, shard: shard}
	q.ring.OnEvict = q.evicted
	return q
}

// evicted accounts one DropOldest eviction. Runs under the ring lock.
func (q *queue) evicted(old Event) {
	q.metrics.DroppedOldest.Inc()
	q.dropped()
	q.traceDrop(old)
}

// dropped counts one shed event on this shard alongside the global
// per-reason counters.
func (q *queue) dropped() {
	if q.drops != nil {
		q.drops.Inc()
	}
}

// traceDrop publishes the shed event's partial trace (no-op for unsampled
// events).
func (q *queue) traceDrop(ev Event) {
	if ev.traceSampled && q.tracer != nil {
		q.tracer.PublishDropped(uint8(ev.Kind), traceKey(ev), q.shard,
			ev.traceStart, ev.traceOffered, q.tracer.Now())
	}
}

// push offers one event under the queue's overflow policy. It returns
// ErrClosed if shutdown has begun (the event is NOT counted ingested) and
// ctx.Err() if a blocked push was canceled (counted ingested + dropped).
// DropNewest rejections are counted but not surfaced as errors, matching
// the policy's contract.
// The event travels by pointer to avoid one more 136-byte copy per call;
// push never retains it, so the caller's copy stays on its stack.
func (q *queue) push(ctx context.Context, ev *Event) error {
	err := q.ring.Push(ctx, *ev)
	switch {
	case err == nil:
		q.metrics.Ingested.Inc()
		return nil
	case errors.Is(err, ErrClosed):
		return ErrClosed
	case errors.Is(err, ErrRejected):
		q.metrics.Ingested.Inc()
		q.metrics.DroppedNewest.Inc()
		q.dropped()
		q.traceDrop(*ev)
		return nil
	default: // canceled Block wait
		q.metrics.Ingested.Inc()
		q.metrics.DroppedCanceled.Inc()
		q.dropped()
		q.traceDrop(*ev)
		return err
	}
}
