package runtime

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/eventlog"
)

// ErrColumnar is wrapped by all columnar-trace and frame-stream errors.
var ErrColumnar = fmt.Errorf("%w: columnar trace", ErrRuntime)

// ColumnarTrace is a single-tenant SCP trace in struct-of-arrays layout —
// the replay-side counterpart of the batched hot path, and the in-memory
// form of a one-tenant frame stream (frame.go): each field of every event
// is contiguous, so a year of simulated operation decodes as block copies
// and replays at memory bandwidth.
//
// All per-event columns have length Len(). Errors and samples share the
// columns: Keys indexes Components (errors) or Vars (samples); Types,
// Sevs and Msgs are meaningful for errors only, Values for samples only.
// String columns hold dictionary indices — traces repeat a small set of
// components, variables and messages endlessly, so each distinct string
// is stored (and later allocated) exactly once.
type ColumnarTrace struct {
	Times  []float64 // event time [s], non-decreasing
	Kinds  []uint8   // uint8(KindError) or uint8(KindSample)
	Keys   []uint32  // index into Components (errors) or Vars (samples)
	Types  []int32   // error type ID
	Sevs   []uint8   // error severity (1..4)
	Msgs   []uint32  // index into Messages
	Values []float64 // sample value

	Vars       []string // sample variable dictionary
	Components []string // error component dictionary
	Messages   []string // error message dictionary

	Failures []float64 // ground-truth failure times, ascending

	// tenant is the name the stream gave its one tenant ("" from a builder),
	// kept so that WriteTo gives back the bytes ReadColumnar was given.
	tenant string
}

// Len returns the number of events in the trace.
func (c *ColumnarTrace) Len() int { return len(c.Times) }

// Event materializes event i, i in [0, Len()), as a runtime ingest event
// that borrows the trace's dictionary strings: nothing allocates. The trace
// must come from ReadColumnar or a ColumnarBuilder, which validate it.
func (c *ColumnarTrace) Event(i int) Event {
	if EventKind(c.Kinds[i]) == KindError {
		return Event{Kind: KindError, Time: c.Times[i], Error: eventlog.Event{
			Time:      c.Times[i],
			Component: c.Components[c.Keys[i]],
			Type:      int(c.Types[i]),
			Severity:  eventlog.Severity(c.Sevs[i]),
			Message:   c.Messages[c.Msgs[i]],
		}}
	}
	return Event{Kind: KindSample, Time: c.Times[i], Variable: c.Vars[c.Keys[i]], Value: c.Values[i]}
}

// CountKinds returns how many events are errors and how many are samples
// — replay drivers use the split to presize their mirror state.
func (c *ColumnarTrace) CountKinds() (errors, samples int) {
	for _, k := range c.Kinds {
		if EventKind(k) == KindError {
			errors++
		} else {
			samples++
		}
	}
	return errors, samples
}

// ColumnarBuilder assembles a ColumnarTrace from a time-ordered event
// stream, interning every string through per-column dictionaries (the
// same eventlog.Interner the in-memory columnar log and the frame encoder
// use). What it accepts, WriteTo can encode.
type ColumnarBuilder struct {
	t     ColumnarTrace
	vars  eventlog.Interner
	comps eventlog.Interner
	msgs  eventlog.Interner
}

// NewColumnarBuilder returns an empty builder.
func NewColumnarBuilder() *ColumnarBuilder { return &ColumnarBuilder{} }

// Grow preallocates column capacity for n additional events.
func (b *ColumnarBuilder) Grow(n int) { b.t.grow(max(n, 0)) }

func (c *ColumnarTrace) grow(n int) {
	c.Times, c.Values = slices.Grow(c.Times, n), slices.Grow(c.Values, n)
	c.Kinds, c.Sevs = slices.Grow(c.Kinds, n), slices.Grow(c.Sevs, n)
	c.Keys, c.Msgs, c.Types = slices.Grow(c.Keys, n), slices.Grow(c.Msgs, n), slices.Grow(c.Types, n)
}

// checkTime holds a new cell of a time column to finite and not before the
// column's tail.
func checkTime(what string, t float64, col []float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("%w: %s time %g", ErrColumnar, what, t)
	}
	if n := len(col); n > 0 && t < col[n-1] {
		return fmt.Errorf("%w: %s time %g before tail %g", ErrColumnar, what, t, col[n-1])
	}
	return nil
}

func (c *ColumnarTrace) appendRow(t float64, kind EventKind, key uint32, typ int32, sev uint8, msg uint32, v float64) {
	c.Times, c.Kinds, c.Keys = append(c.Times, t), append(c.Kinds, uint8(kind)), append(c.Keys, key)
	c.Types, c.Sevs, c.Msgs = append(c.Types, typ), append(c.Sevs, sev), append(c.Msgs, msg)
	c.Values = append(c.Values, v)
}

// AddError appends one detected-error report. Events must arrive in
// non-decreasing time order and satisfy the eventlog append rules, so a
// replayed trace reconstructs into a mirror log without surprises.
func (b *ColumnarBuilder) AddError(e eventlog.Event) error {
	if err := checkTime("event", e.Time, b.t.Times); err != nil {
		return err
	}
	if e.Severity < eventlog.SeverityInfo || e.Severity > eventlog.SeverityCritical {
		return fmt.Errorf("%w: severity %d", ErrColumnar, e.Severity)
	}
	if e.Type < 0 || e.Type > math.MaxInt32 {
		return fmt.Errorf("%w: event type %d out of range", ErrColumnar, e.Type)
	}
	b.t.appendRow(e.Time, KindError, b.comps.Intern(e.Component), int32(e.Type), uint8(e.Severity), b.msgs.Intern(e.Message), 0)
	return nil
}

// AddSample appends one monitoring-variable sample.
func (b *ColumnarBuilder) AddSample(at float64, variable string, v float64) error {
	if err := checkTime("event", at, b.t.Times); err != nil {
		return err
	}
	b.t.appendRow(at, KindSample, b.vars.Intern(variable), 0, 0, 0, v)
	return nil
}

// AddFailure records one ground-truth failure time (ascending).
func (b *ColumnarBuilder) AddFailure(at float64) error {
	if err := checkTime("failure", at, b.t.Failures); err != nil {
		return err
	}
	b.t.Failures = append(b.t.Failures, at)
	return nil
}

// Trace returns the assembled trace. The builder must not be used after.
func (b *ColumnarBuilder) Trace() *ColumnarTrace {
	b.t.Vars = b.vars.Strings()
	b.t.Components = b.comps.Strings()
	b.t.Messages = b.msgs.Strings()
	return &b.t
}

// WriteTo serializes the trace as a frame stream (frame.go) — what
// fleet.Writer emits for the same records: events and Failures merge back
// into one time-ordered row stream, a failure mark after the events of its
// own instant, under the tenant name the trace was read with.
func (c *ColumnarTrace) WriteTo(w io.Writer) (int64, error) {
	var enc FrameEncoder
	for i, fi := 0, 0; i < c.Len() || fi < len(c.Failures); {
		var err error
		if fi < len(c.Failures) && (i == c.Len() || c.Failures[fi] < c.Times[i]) {
			err = enc.Add(w, c.tenant, Event{Time: c.Failures[fi]}, true)
			fi++
		} else {
			err = enc.Add(w, c.tenant, c.Event(i), false)
			i++
		}
		if err != nil {
			return enc.written, err
		}
	}
	err := enc.Flush(w)
	return enc.written, err
}

// ReadColumnar reads a one-tenant frame stream into memory: column blocks
// are appended a frame at a time, failure marks split back out into
// Failures. On top of what FrameDecoder checks of any stream it refuses a
// second tenant and times that run backwards, so a trace it returns is safe
// to drive through Event without checks and into a mirror log in order.
func ReadColumnar(r io.Reader) (*ColumnarTrace, error) {
	// The stream is read twice, first for its frame headers only: each held
	// to the bytes behind it, they say how many rows to make room for, so the
	// columns are allocated once and the trace, which outlives the read, owns
	// no more than it holds. A stream that cannot seek is held in memory.
	rs, ok := r.(io.ReadSeeker)
	if !ok {
		stream, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrColumnar, err)
		}
		rs = bytes.NewReader(stream)
	}
	start, err := rs.Seek(0, io.SeekCurrent)
	br := bufio.NewReaderSize(rs, 1<<16)
	count := FrameDecoder{countOnly: true}
	for err == nil && count.Next(br) == nil { // what ends the count is the decode's to report
	}
	if err == nil {
		_, err = rs.Seek(start, io.SeekStart)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrColumnar, err)
	}
	br.Reset(rs)
	c := &ColumnarTrace{}
	c.grow(count.counted)
	var dec FrameDecoder
	for {
		err := dec.Next(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(dec.tenants) > 1 {
			return nil, fmt.Errorf("%w: stream names tenants %q and %q, a columnar trace holds one", ErrColumnar, dec.tenants[0], dec.tenants[1])
		}
		c.appendFrame(&dec.rows)
	}
	if !slices.IsSorted(c.Times) || !slices.IsSorted(c.Failures) {
		return nil, fmt.Errorf("%w: event times or failure times run backwards", ErrColumnar)
	}
	if len(dec.tenants) > 0 {
		c.tenant = dec.tenants[0]
	}
	c.Vars, c.Components, c.Messages = dec.rows.Vars, dec.rows.Components, dec.rows.Messages
	return c, nil
}

// appendFrame appends a decoded frame's rows: each run of events between
// failure marks as seven block copies, each mark's time to Failures.
func (c *ColumnarTrace) appendFrame(f *ColumnarTrace) {
	run := func(lo, hi int) {
		c.Times = append(c.Times, f.Times[lo:hi]...)
		c.Kinds = append(c.Kinds, f.Kinds[lo:hi]...)
		c.Keys = append(c.Keys, f.Keys[lo:hi]...)
		c.Types = append(c.Types, f.Types[lo:hi]...)
		c.Sevs = append(c.Sevs, f.Sevs[lo:hi]...)
		c.Msgs = append(c.Msgs, f.Msgs[lo:hi]...)
		c.Values = append(c.Values, f.Values[lo:hi]...)
	}
	lo := 0
	for i, kind := range f.Kinds {
		if kind == kindMark {
			run(lo, i)
			c.Failures = append(c.Failures, f.Times[i])
			lo = i + 1
		}
	}
	run(lo, f.Len())
}
