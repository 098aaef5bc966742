// Package ingest defines the one monitoring record of the repository: what
// the paper's Monitor stage hands the predictors (Fig. 1, Sect. 3.1) —
// error-log events and periodic SAR samples — plus the ground-truth failure
// marks the Sect. 3.3 rule scores warnings against. The simulator emits it
// (scp.MultiSystem.Drain), both trace encodings carry it (the text line
// protocol and the binary frames), every fleet.Source yields it, and both
// runtimes queue it, packed (Packed); no layer on the way converts it into
// another type.
package ingest

import (
	"math"

	"repro/internal/eventlog"
)

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
// or monitoring-variable sample. 112 bytes; the queues do not hold it but
// its Packed form (72 bytes) beside their tenant (the runtime's name, the
// fleet's pointer).
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

// Packed is an Event as a queue slot holds it, 72 bytes: its time, its kind,
// the queue's trace stamp and only that kind's fields, which share storage —
// the five Error fields of a KindError event, or Variable and Value of any
// other (a kind outside the two keeps its Kind, so Apply still sees it as
// itself). Tenant is not packed: the queue knows it. The round trip
// Pack → Event is exact in every bit of the fields it keeps (NaN payloads,
// ±Inf, full-width Type, Severity and Kind, an Error.Time apart from Time).
type Packed struct {
	time float64
	// word is the trace stamp, a tracer reading and so never negative, with
	// errorBit set for a KindError event.
	word uint64
	// a, b are Error.Component and Error.Message, or Variable and "".
	a, b string
	// x, y, z are Error.Time's bits, Type and Severity, or Value's bits,
	// Kind and 0.
	x, y, z uint64
}

const errorBit = 1 << 63

// Pack builds ev's slot with trace stamp stamp (≥ 0; 0 is not sampled).
func Pack(ev *Event, stamp int64) Packed {
	p := Packed{time: ev.Time, word: uint64(stamp)}
	if ev.Kind == KindError {
		e := &ev.Error
		p.word |= errorBit
		p.a, p.b = e.Component, e.Message
		p.x, p.y, p.z = math.Float64bits(e.Time), uint64(e.Type), uint64(e.Severity)
	} else {
		p.a = ev.Variable
		p.x, p.y = math.Float64bits(ev.Value), uint64(ev.Kind)
	}
	return p
}

// Event reads the packed event back, with tenant as its Tenant.
func (p *Packed) Event(tenant string) Event {
	if p.word&errorBit != 0 {
		return Event{Tenant: tenant, Kind: KindError, Time: p.time, Error: eventlog.Event{
			Time: math.Float64frombits(p.x), Component: p.a, Type: int(p.y),
			Severity: eventlog.Severity(p.z), Message: p.b,
		}}
	}
	return Event{Tenant: tenant, Kind: Kind(p.y), Time: p.time, Variable: p.a, Value: math.Float64frombits(p.x)}
}

// Stamp is the trace stamp Pack was given.
func (p *Packed) Stamp() int64 { return int64(p.word &^ errorBit) }
