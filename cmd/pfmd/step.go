// How every mode decides when a cycle is due: a stepper over the run's input
// — the simulator, a trace file, or the TCP listener — that runs each MEA
// cycle on the feeding goroutine, at a domain time read off the records.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// domainClock is a run's one time base, in simulated seconds: the stepper
// moves it forward, the pipeline reads it from any goroutine (the fleet's
// token buckets refill on it).
type domainClock struct{ bits atomic.Uint64 }

func (c *domainClock) now() float64 { return math.Float64frombits(c.bits.Load()) }

// advance moves the clock to t unless it already reads later. The stepper's
// goroutine is its only writer.
func (c *domainClock) advance(t float64) {
	if t > c.now() {
		c.bits.Store(math.Float64bits(t))
	}
}

// stepper decides when a cycle is due. Cadence boundaries fall at the first
// record's time plus multiples of the cadence. Before the stepper hands on a
// record at time t it runs every boundary b < t; a boundary b = t runs after
// the failure marks of that instant and before its events, which it holds
// back until a later record, or the end of the input, shows the instant is
// over (a trace writes an instant's failure marks after its events). So on a
// time-ordered input a cycle at b sees the failures at or before b and none
// of the events at or after b. The boundaries due at one point go to run as
// one stack, once everything handed on before has been admitted; run
// Barriers and runs a cycle at each. A record time the cadence cannot step to
// — NaN, ±Inf, or so large that adding the cadence leaves it unchanged — ends
// the input with an error.
type stepper struct {
	src     fleet.Source
	cadence float64
	clock   *domainClock
	run     func(nows []float64) error

	next float64        // the next boundary; NaN before the first record
	due  []float64      // the stack handed to run, reused
	held []fleet.Record // the events at boundary next, until its cycle ran
	out  []fleet.Record // a released instant's events; out[i:] not yet handed on
	i    int
	// ahead is the record (or the error) that ended a held instant, read
	// again once the instant's events are handed on.
	ahead    fleet.Record
	aheadErr error
	hasAhead bool
}

func newStepper(src fleet.Source, cadence float64, clock *domainClock, run func(nows []float64) error) *stepper {
	return &stepper{src: src, cadence: cadence, clock: clock, run: run, next: math.NaN()}
}

func (s *stepper) Next() (fleet.Record, error) {
	for {
		if s.i < len(s.out) {
			rec := s.out[s.i]
			s.i++
			s.clock.advance(rec.Event.Time)
			return rec, nil
		}
		rec, err := s.read()
		if len(s.held) > 0 && (err != nil || rec.Event.Time > s.next) {
			// The held instant is over and its failure marks have passed: its
			// cycle runs, then its events go on, then this record.
			s.ahead, s.aheadErr, s.hasAhead = rec, err, true
			if err := s.runBefore(s.next, true); err != nil {
				return fleet.Record{}, err
			}
			s.out, s.held, s.i = s.held, s.out[:0], 0
			continue
		}
		if err != nil {
			return rec, err
		}
		t := rec.Event.Time
		if math.IsNaN(t) || t+s.cadence == t {
			return fleet.Record{}, fmt.Errorf("record at time %g: the %g s cadence cannot step to it", t, s.cadence)
		}
		if math.IsNaN(s.next) {
			s.next = t + s.cadence
		}
		if err := s.runBefore(t, false); err != nil {
			return fleet.Record{}, err
		}
		if !rec.Failure && t == s.next {
			s.held = append(s.held, rec)
			continue
		}
		s.clock.advance(t)
		return rec, nil
	}
}

func (s *stepper) read() (fleet.Record, error) {
	if s.hasAhead {
		s.hasAhead = false
		return s.ahead, s.aheadErr
	}
	return s.src.Next()
}

// maxCatchUp bounds the cycles one record can cost: a record more than
// maxCatchUp cadences past the next boundary (a sender that switched time
// bases, say) runs only the boundaries of the last maxCatchUp cadences
// before it, not every one in between.
const maxCatchUp = 1440 // a day at the default cadence

// runBefore runs every boundary before t, and t itself when inclusive.
func (s *stepper) runBefore(t float64, inclusive bool) error {
	if gap := t - maxCatchUp*s.cadence - s.next; gap > 0 {
		s.next += math.Ceil(gap/s.cadence) * s.cadence
	}
	s.due = s.due[:0]
	for s.next < t || inclusive && s.next == t {
		s.due = append(s.due, s.next)
		s.next += s.cadence
	}
	if len(s.due) == 0 {
		return nil
	}
	return s.run(s.due)
}

// simSource yields a MultiSystem's merged trace, running every tenant one
// slice of simulated time whenever the last slice's records are used up,
// until the horizon.
type simSource struct {
	m              *scp.MultiSystem
	horizon, slice float64 // simulated seconds
	ran            float64
	recs           []fleet.Record
	i              int
}

func (s *simSource) Next() (fleet.Record, error) {
	for s.i == len(s.recs) {
		if s.ran >= s.horizon {
			return fleet.Record{}, io.EOF
		}
		step := math.Min(s.slice, s.horizon-s.ran)
		if err := s.m.Run(step); err != nil {
			return fleet.Record{}, err
		}
		s.ran += step
		s.recs, s.i = fleet.SCPRecords(s.m.Drain()), 0
	}
	s.i++
	return s.recs[s.i-1], nil
}

// simulate is the simulator source, paced against the wall clock at
// -compress. It runs the simulator a cadence at a time, so a countermeasure
// lands at most a cadence or two after the cycle that chose it whatever the
// compression: a live run depends on -seed, -eval and -days, not on the pace.
func (o *options) simulate(ctx context.Context, m *scp.MultiSystem) fleet.Source {
	sim := &simSource{m: m, horizon: o.days * 86400, slice: o.eval}
	return &pacedSource{ctx: ctx, src: sim, compress: o.compress, start: time.Now()}
}

// pacedSource hands each record of src on once its domain time is due at
// compress simulated seconds per wall second from start.
type pacedSource struct {
	ctx      context.Context
	src      fleet.Source
	compress float64
	start    time.Time
}

func (p *pacedSource) Next() (fleet.Record, error) {
	rec, err := p.src.Next()
	if err != nil {
		return rec, err
	}
	due := p.start.Add(time.Duration(rec.Event.Time / p.compress * float64(time.Second)))
	if wait := time.Until(due); wait > 0 {
		select {
		case <-p.ctx.Done():
			return fleet.Record{}, p.ctx.Err()
		case <-time.After(wait):
		}
	}
	return rec, nil
}

// feed pumps src into the single-tenant runtime: events through Ingest,
// failure marks into the ledger. It returns the events ingested. A record of
// a second tenant is refused by name.
func (p *pipeline) feed(ctx context.Context, src fleet.Source) (int, error) {
	events := 0
	var tenant string
	for n := 0; ; n++ {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		ev := rec.Event
		if n == 0 {
			tenant = ev.Tenant
		} else if ev.Tenant != tenant {
			return events, fmt.Errorf("trace names tenants %q and %q, the single-tenant runtime takes one", tenant, ev.Tenant)
		}
		if rec.Failure {
			p.recordFailure(ev.Time)
			continue
		}
		if err := p.rt.Ingest(ctx, runtime.Event{
			Kind: ev.Kind, Time: ev.Time, Error: ev.Error, Variable: ev.Variable, Value: ev.Value,
		}); err != nil {
			return events, err
		}
		events++
	}
}
