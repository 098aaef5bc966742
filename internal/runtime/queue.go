package runtime

import (
	"errors"
	"fmt"

	"repro/internal/ingest"
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

// Event, KindError and KindSample are the ingest package's, named here for
// bench/pfmbench until it moves to ingest (ROADMAP 10(b)).
type Event = ingest.Event

const (
	KindError  = ingest.KindError
	KindSample = ingest.KindSample
)

// queued is one ring slot: the event and its trace stamp, the tracer time at
// Ingest entry, which is also the queue offer (the push follows within
// nanoseconds); 0 means not sampled. The stamp rides through the pipeline so
// the whole span record is published with a single lock acquisition at apply
// (or drop) time, and unsampled events skip every clock read. 120 bytes
// (TestEventSize): the ring copies it in and out once each.
type queued struct {
	ev    ingest.Event
	trace int64
}

// traceKey is the stream label a trace retains for rendering.
func traceKey(ev *ingest.Event) string {
	if ev.Kind == ingest.KindError {
		return "errors"
	}
	return ev.Variable
}
