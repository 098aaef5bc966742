// Package ingest defines the one monitoring record of the repository: what
// the paper's Monitor stage hands the predictors (Fig. 1, Sect. 3.1) —
// error-log events and periodic SAR samples — plus the ground-truth failure
// marks the Sect. 3.3 rule scores warnings against. The simulator emits it
// (scp.MultiSystem.Drain), both trace encodings carry it (the text line
// protocol and the binary frames), every fleet.Source yields it, and both
// runtimes queue it; no layer on the way converts it into another type.
package ingest

import "repro/internal/eventlog"

// Kind discriminates the two monitoring inputs of the paper's case study:
// detected-error reports and periodic SAR-style samples.
type Kind int

const (
	// KindError is a detected-error report (Sect. 3.1, stage 4).
	KindError Kind = iota
	// KindSample is one periodic monitoring-variable sample.
	KindSample
)

// Event is one unit of monitoring ingest: a tenant-labeled error-log event
// or monitoring-variable sample. 112 bytes; the queues hold it beside their
// own bookkeeping (the runtime's trace stamp, the fleet's routing target).
type Event struct {
	// Tenant names the monitored system ("" or the one tenant of a
	// single-tenant stream).
	Tenant string
	Kind   Kind
	// Time is the domain timestamp [s] (simulation or epoch seconds —
	// whatever clock the layers evaluate against).
	Time float64
	// Error is set for KindError.
	Error eventlog.Event
	// Variable/Value are set for KindSample.
	Variable string
	Value    float64
}

// Record is one unit of a trace: an event, or a ground-truth failure mark
// (Failure true; of Event only Tenant and Time count).
type Record struct {
	Event   Event
	Failure bool
}
