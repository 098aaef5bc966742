package fleet

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ingest"
)

// Clock is a run's one time base, in simulated seconds: a Stepper moves it
// forward, the pipeline reads it from any goroutine (a fleet's token buckets
// refill on it).
type Clock struct{ t atomic.Uint64 }

// Now reads the clock.
func (c *Clock) Now() float64 { return loadTime(&c.t) }

// Advance moves the clock to t unless it already reads later. The stepper's
// goroutine is its only writer.
func (c *Clock) Advance(t float64) {
	if t > c.Now() {
		storeTime(&c.t, t)
	}
}

// Stepper decides when a cycle is due. Cadence boundaries fall at the first
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
type Stepper struct {
	src     Source
	cadence float64
	clock   *Clock
	run     func(nows []float64) error

	next float64         // the next boundary; NaN before the first record
	due  []float64       // the stack handed to run, reused
	held []ingest.Record // the events at boundary next, until its cycle ran
	out  []ingest.Record // a released instant's events; out[i:] not yet handed on
	i    int
	// ahead is the record (or the error) that ended a held instant, read
	// again once the instant's events are handed on.
	ahead    ingest.Record
	aheadErr error
	hasAhead bool
}

// NewStepper wraps src: run gets each stack of boundaries due, and clock
// reads the time of the last record handed on.
func NewStepper(src Source, cadence float64, clock *Clock, run func(nows []float64) error) *Stepper {
	return &Stepper{src: src, cadence: cadence, clock: clock, run: run, next: math.NaN()}
}

// Next hands on the input's next record, first running the cycles it makes due.
func (s *Stepper) Next() (ingest.Record, error) {
	for {
		if s.i < len(s.out) {
			rec := s.out[s.i]
			s.i++
			s.clock.Advance(rec.Event.Time)
			return rec, nil
		}
		rec, err := s.read()
		if len(s.held) > 0 && (err != nil || rec.Event.Time > s.next) {
			// The held instant is over and its failure marks have passed: its
			// cycle runs, then its events go on, then this record.
			s.ahead, s.aheadErr, s.hasAhead = rec, err, true
			if err := s.runBefore(s.next, true); err != nil {
				return ingest.Record{}, err
			}
			s.out, s.held, s.i = s.held, s.out[:0], 0
			continue
		}
		if err != nil {
			return rec, err
		}
		t := rec.Event.Time
		if math.IsNaN(t) || t+s.cadence == t {
			return ingest.Record{}, fmt.Errorf("record at time %g: the %g s cadence cannot step to it", t, s.cadence)
		}
		if math.IsNaN(s.next) {
			s.next = t + s.cadence
		}
		if err := s.runBefore(t, false); err != nil {
			return ingest.Record{}, err
		}
		if !rec.Failure && t == s.next {
			s.held = append(s.held, rec)
			continue
		}
		s.clock.Advance(t)
		return rec, nil
	}
}

func (s *Stepper) read() (ingest.Record, error) {
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
func (s *Stepper) runBefore(t float64, inclusive bool) error {
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
