package runtime

import (
	"errors"
	"fmt"

	"repro/internal/eventlog"
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

// Event is one unit of monitoring ingest. 104 bytes (TestEventSize): the ring
// copies it in and out once each.
type Event struct {
	Kind EventKind
	// Time is the domain timestamp [s] (simulation or epoch seconds —
	// whatever clock the runtime's layers evaluate against).
	Time float64
	// Error is set for KindError.
	Error eventlog.Event
	// Variable/Value are set for KindSample.
	Variable string
	Value    float64

	// trace is the tracer time at Ingest entry, which is also the queue offer
	// (the push follows within nanoseconds); 0 means not sampled. It rides
	// through the pipeline so the whole span record is published with a single
	// lock acquisition at apply (or drop) time, and unsampled events skip
	// every clock read.
	trace int64
}

// traceKey is the stream label a trace retains for rendering.
func traceKey(ev Event) string {
	if ev.Kind == KindError {
		return "errors"
	}
	return ev.Variable
}
