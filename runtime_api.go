package pfm

// Facade over internal/runtime: the concurrent streaming MEA runtime that
// wraps an MEAEngine into a pipeline (one bounded ingest queue drained into
// predictor state, and a cycle — run by whoever calls EvaluateNow or
// CycleBatch, at the domain time the caller's clock names — that scores the
// layers over a worker pool and then acts) with Prometheus-text metrics and
// /healthz. See cmd/pfmd for a complete deployment.

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// Runtime is the concurrent streaming MEA pipeline (Monitor ingest, and a
// cycle that Evaluates over a worker pool, then Acts). Construct with
// NewRuntime, drive with Start/Ingest/EvaluateNow, observe via Handler or
// Serve, finish with Stop.
type Runtime = runtime.Runtime

// RuntimeConfig parameterizes the streaming runtime.
type RuntimeConfig = runtime.Config

// RuntimeEvent is one monitored observation flowing through the ingest
// queue: an error-log event or a monitoring-variable sample.
type RuntimeEvent = runtime.Event

// RuntimeMetrics is the pipeline's atomic metrics set (counters, latency
// histograms, queue gauges), renderable as Prometheus text.
type RuntimeMetrics = runtime.Metrics

// RuntimeHealth is the /healthz response body.
type RuntimeHealth = runtime.Health

// OverflowPolicy selects what Ingest does when the bounded queue is full.
type OverflowPolicy = runtime.OverflowPolicy

// The three ingest overflow policies.
const (
	OverflowBlock      = runtime.Block      // backpressure: wait for space
	OverflowDropOldest = runtime.DropOldest // evict the oldest queued event
	OverflowDropNewest = runtime.DropNewest // reject the incoming event
)

// Runtime event kinds.
const (
	RuntimeEventError  = runtime.KindError  // an error-log event
	RuntimeEventSample = runtime.KindSample // a monitoring-variable sample
)

// Decision is the outcome of one serialized act round (warning raised?
// action executed or suppressed by the oscillation guard?).
type Decision = core.Decision

// NewRuntime assembles a streaming runtime over an (often externally
// clocked) MEA engine. Not yet running; call Start.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return runtime.New(cfg) }

// ParseOverflowPolicy maps "block" | "drop-oldest" | "drop-newest" to the
// corresponding policy.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) { return runtime.ParsePolicy(s) }
