// Package eventlog models detected-error reporting (Sect. 3.1, stage 4):
// time-stamped error events with component and type identifiers, append-only
// logs, burst tupling, and the Fig. 6 extraction of failure and non-failure
// error sequences that feeds the HSMM predictor.
//
// The log's backing store is columnar (struct-of-arrays): times, type
// codes and severities live in flat numeric columns, and component and
// message strings are dictionary-interned so each distinct string exists
// once regardless of how many events carry it. Appends write five column
// cells (no per-event box, no per-event string allocation), hot scans run
// branch-light loops over contiguous numeric memory (ScanWindow gives the
// index range of a time window), and At materializes one Event from the
// columns — its strings shared dictionary entries — for cold paths.
package eventlog

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrLog is wrapped by all log errors.
var ErrLog = errors.New("eventlog: invalid operation")

// Severity grades an error report.
type Severity int

// Severity levels, in increasing order of gravity.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityError
	SeverityCritical
)

// String returns the display token for s.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "INFO"
	case SeverityWarning:
		return "WARN"
	case SeverityError:
		return "ERROR"
	case SeverityCritical:
		return "CRIT"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Event is one detected-error report.
type Event struct {
	Time      float64  // report time [s]
	Component string   // reporting component ID
	Type      int      // message / event type ID
	Severity  Severity // report severity
	Message   string   // free-text message (no newlines)
}

// Log is a time-ordered, append-only error log in struct-of-arrays
// layout: parallel columns for time, type, severity, and dictionary
// indices of the component and message strings. All columns always have
// equal length and (chunk-rounded) equal capacity.
type Log struct {
	times []float64
	types []int32
	sevs  []uint8
	comps []uint32 // index into components
	msgs  []uint32 // index into messages

	components Interner
	messages   Interner
}

// logChunk rounds column capacities: growth allocates whole chunks so the
// five columns stay capacity-aligned and small logs do not re-copy on
// every handful of appends.
const logChunk = 1024

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// ensure grows all columns together to hold at least extra more events:
// doubling, chunk-rounded, one allocation per column. Appends after an
// ensure never reallocate until the reserved capacity is exhausted.
func (l *Log) ensure(extra int) {
	n := len(l.times)
	need := n + extra
	if need <= cap(l.times) {
		return
	}
	c := 2 * cap(l.times)
	if c < need {
		c = need
	}
	c = (c + logChunk - 1) / logChunk * logChunk
	times := make([]float64, n, c)
	copy(times, l.times)
	l.times = times
	types := make([]int32, n, c)
	copy(types, l.types)
	l.types = types
	sevs := make([]uint8, n, c)
	copy(sevs, l.sevs)
	l.sevs = sevs
	comps := make([]uint32, n, c)
	copy(comps, l.comps)
	l.comps = comps
	msgs := make([]uint32, n, c)
	copy(msgs, l.msgs)
	l.msgs = msgs
}

// checkEvent validates one event against the append rules relative to the
// given tail time.
func checkEvent(e Event, tail float64) error {
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		return fmt.Errorf("%w: event time %g", ErrLog, e.Time)
	}
	if e.Time < tail {
		return fmt.Errorf("%w: event time %g before log tail %g", ErrLog, e.Time, tail)
	}
	if strings.ContainsAny(e.Message, "\n|") {
		return fmt.Errorf("%w: message contains reserved characters", ErrLog)
	}
	if e.Severity < SeverityInfo || e.Severity > SeverityCritical {
		return fmt.Errorf("%w: severity %d", ErrLog, e.Severity)
	}
	if e.Type < math.MinInt32 || e.Type > math.MaxInt32 {
		return fmt.Errorf("%w: event type %d out of int32 range", ErrLog, e.Type)
	}
	return nil
}

// tail returns the last event time, or -Inf on an empty log.
func (l *Log) tail() float64 {
	if n := len(l.times); n > 0 {
		return l.times[n-1]
	}
	return math.Inf(-1)
}

// Append adds an event; its time must be ≥ the last event's time (equal
// times are allowed — real loggers emit bursts with identical stamps).
func (l *Log) Append(e Event) error {
	if err := checkEvent(e, l.tail()); err != nil {
		return err
	}
	l.ensure(1)
	l.times = append(l.times, e.Time)
	l.types = append(l.types, int32(e.Type))
	l.sevs = append(l.sevs, uint8(e.Severity))
	l.comps = append(l.comps, l.components.Intern(e.Component))
	l.msgs = append(l.msgs, l.messages.Intern(e.Message))
	return nil
}

// Grow preallocates capacity for at least n more events, so a replay
// that knows its trace size up front (e.g. a columnar trace header)
// appends without intermediate reallocation-and-copy cycles.
func (l *Log) Grow(n int) {
	if n <= 0 {
		return
	}
	l.ensure(n)
}

// Len returns the number of events.
func (l *Log) Len() int { return len(l.times) }

// At materializes the i-th event. The strings are the log's dictionary
// entries (shared, not copied), so calling At for every event allocates
// nothing.
func (l *Log) At(i int) Event {
	return Event{
		Time:      l.times[i],
		Component: l.components.Lookup(l.comps[i]),
		Type:      int(l.types[i]),
		Severity:  Severity(l.sevs[i]),
		Message:   l.messages.Lookup(l.msgs[i]),
	}
}

// Column accessors: read-only views of the backing columns for
// column-native scans. The views must not be modified, and must not be
// retained across a later Append (which may reallocate the columns).

// TypeCodes returns the event-type column.
func (l *Log) TypeCodes() []int32 { return l.types }

// ComponentIDs returns the component dictionary-index column.
func (l *Log) ComponentIDs() []uint32 { return l.comps }

// TimeAt returns the i-th event time without materializing the event.
func (l *Log) TimeAt(i int) float64 { return l.times[i] }

// TypeAt returns the i-th event type.
func (l *Log) TypeAt(i int) int { return int(l.types[i]) }

// ComponentCount returns the number of distinct components seen.
func (l *Log) ComponentCount() int { return l.components.Len() }

// ComponentName returns the component string for a dictionary ID from
// ComponentIDs.
func (l *Log) ComponentName(id uint32) string { return l.components.Lookup(id) }

// ScanWindow returns the column index range [lo, hi) of the events with
// time in the half-open interval [from, to) — two binary searches over
// the time column, no materialization. This is the window primitive every
// hot scan builds on: slice the columns with it, or count with hi−lo.
func (l *Log) ScanWindow(from, to float64) (lo, hi int) {
	lo = sort.SearchFloat64s(l.times, from)
	hi = lo + sort.SearchFloat64s(l.times[lo:], to)
	return lo, hi
}

// TypeBitset is a dense bitset over non-negative event-type IDs, used for
// per-window type-presence scans without per-window map allocation. The
// zero value is an empty set.
type TypeBitset struct {
	bits []uint64
}

// Reset clears the set, keeping its capacity.
func (b *TypeBitset) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
}

// Add inserts a non-negative type ID (negative IDs are ignored).
func (b *TypeBitset) Add(t int) {
	if t < 0 {
		return
	}
	w := t >> 6
	if w >= len(b.bits) {
		grown := make([]uint64, w+1)
		copy(grown, b.bits)
		b.bits = grown
	}
	b.bits[w] |= 1 << (uint(t) & 63)
}

// Has reports membership; negative IDs are never members.
func (b *TypeBitset) Has(t int) bool {
	if t < 0 {
		return false
	}
	w := t >> 6
	return w < len(b.bits) && b.bits[w]&(1<<(uint(t)&63)) != 0
}

// Slice returns a new log holding the events in [from, to): five column
// copies plus a dictionary clone, no per-event work. This is how the
// experiment harnesses carve train/test sub-logs out of a finished run.
func (l *Log) Slice(from, to float64) *Log {
	lo, hi := l.ScanWindow(from, to)
	out := NewLog()
	out.components = l.components.Clone()
	out.messages = l.messages.Clone()
	out.ensure(hi - lo)
	out.times = append(out.times, l.times[lo:hi]...)
	out.types = append(out.types, l.types[lo:hi]...)
	out.sevs = append(out.sevs, l.sevs[lo:hi]...)
	out.comps = append(out.comps, l.comps[lo:hi]...)
	out.msgs = append(out.msgs, l.msgs[lo:hi]...)
	return out
}
