package runtime

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/eventlog"
)

// ErrColumnar is wrapped by all columnar-trace encoding errors.
var ErrColumnar = fmt.Errorf("%w: columnar trace", ErrRuntime)

// columnarMagic identifies the PFC1 single-tenant columnar trace format.
var columnarMagic = [4]byte{'P', 'F', 'C', '1'}

// Sanity caps for ReadColumnar. They bound what a well-formed file may
// hold, not what a corrupt one may make the reader allocate: every count in
// the file is a claim, and memory is committed as the bytes behind it
// arrive (readF64s, readDict), so a 30-byte file that announces 2^30
// events costs its 30 bytes (FuzzReadColumnar).
const (
	maxColumnarEvents  = 1 << 30
	maxColumnarStrings = 1 << 24
	maxColumnarStrLen  = 1 << 20
	// columnarChunk is how many cells an unproven count is read at a time.
	columnarChunk = 1 << 16
)

// readF64s reads n little-endian float64s whose count nothing has vouched
// for yet: the slice doubles as the cells arrive, so a short input costs no
// more than a chunk beyond what it holds.
func readF64s(r io.Reader, n int) ([]float64, error) {
	out := make([]float64, 0, min(n, columnarChunk))
	block := make([]byte, cap(out)*8)
	for len(out) < n {
		k := min(n-len(out), columnarChunk)
		if _, err := io.ReadFull(r, block[:k*8]); err != nil {
			return nil, err
		}
		if len(out)+k > cap(out) {
			out = append(make([]float64, 0, min(n, 2*cap(out))), out...)
		}
		for i := 0; i < k; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(block[i*8:])))
		}
	}
	return out, nil
}

// ColumnarTrace is a single-tenant SCP trace in struct-of-arrays layout —
// the replay-side counterpart of the batched hot path. Where the text
// trace (data.trace) costs a parse, an allocation and a cache miss per
// field, the columnar form keeps each field of every event contiguous, so
// a year of simulated operation decodes in a handful of large reads and
// replays at memory bandwidth.
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
}

// Len returns the number of events in the trace.
func (c *ColumnarTrace) Len() int { return len(c.Times) }

// Event materializes event i as a runtime ingest event. The returned
// event borrows the trace's dictionary strings, so calling it for every
// event of a trace allocates nothing — i must be in [0, Len()) and the
// trace must have passed ReadColumnar validation (or come from a
// ColumnarBuilder).
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
// same eventlog.Interner the in-memory columnar log uses — one intern
// machinery for both the on-disk and in-memory layouts).
type ColumnarBuilder struct {
	t     ColumnarTrace
	vars  eventlog.Interner
	comps eventlog.Interner
	msgs  eventlog.Interner
}

// NewColumnarBuilder returns an empty builder.
func NewColumnarBuilder() *ColumnarBuilder { return &ColumnarBuilder{} }

// Grow preallocates column capacity for n additional events.
func (b *ColumnarBuilder) Grow(n int) {
	if n <= 0 {
		return
	}
	t := &b.t
	t.Times = append(make([]float64, 0, len(t.Times)+n), t.Times...)
	t.Kinds = append(make([]uint8, 0, len(t.Kinds)+n), t.Kinds...)
	t.Keys = append(make([]uint32, 0, len(t.Keys)+n), t.Keys...)
	t.Types = append(make([]int32, 0, len(t.Types)+n), t.Types...)
	t.Sevs = append(make([]uint8, 0, len(t.Sevs)+n), t.Sevs...)
	t.Msgs = append(make([]uint32, 0, len(t.Msgs)+n), t.Msgs...)
	t.Values = append(make([]float64, 0, len(t.Values)+n), t.Values...)
}

func (b *ColumnarBuilder) checkTime(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("%w: event time %g", ErrColumnar, t)
	}
	if n := len(b.t.Times); n > 0 && t < b.t.Times[n-1] {
		return fmt.Errorf("%w: event time %g before trace tail %g", ErrColumnar, t, b.t.Times[n-1])
	}
	return nil
}

// AddError appends one detected-error report. Events must arrive in
// non-decreasing time order and satisfy the eventlog append rules, so a
// replayed trace reconstructs into a mirror log without surprises.
func (b *ColumnarBuilder) AddError(e eventlog.Event) error {
	if err := b.checkTime(e.Time); err != nil {
		return err
	}
	if e.Severity < eventlog.SeverityInfo || e.Severity > eventlog.SeverityCritical {
		return fmt.Errorf("%w: severity %d", ErrColumnar, e.Severity)
	}
	if e.Type < math.MinInt32 || e.Type > math.MaxInt32 {
		return fmt.Errorf("%w: event type %d out of range", ErrColumnar, e.Type)
	}
	t := &b.t
	t.Times = append(t.Times, e.Time)
	t.Kinds = append(t.Kinds, uint8(KindError))
	t.Keys = append(t.Keys, b.comps.Intern(e.Component))
	t.Types = append(t.Types, int32(e.Type))
	t.Sevs = append(t.Sevs, uint8(e.Severity))
	t.Msgs = append(t.Msgs, b.msgs.Intern(e.Message))
	t.Values = append(t.Values, 0)
	return nil
}

// AddSample appends one monitoring-variable sample.
func (b *ColumnarBuilder) AddSample(at float64, variable string, v float64) error {
	if err := b.checkTime(at); err != nil {
		return err
	}
	t := &b.t
	t.Times = append(t.Times, at)
	t.Kinds = append(t.Kinds, uint8(KindSample))
	t.Keys = append(t.Keys, b.vars.Intern(variable))
	t.Types = append(t.Types, 0)
	t.Sevs = append(t.Sevs, 0)
	t.Msgs = append(t.Msgs, 0)
	t.Values = append(t.Values, v)
	return nil
}

// AddFailure records one ground-truth failure time (ascending).
func (b *ColumnarBuilder) AddFailure(at float64) error {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("%w: failure time %g", ErrColumnar, at)
	}
	if n := len(b.t.Failures); n > 0 && at < b.t.Failures[n-1] {
		return fmt.Errorf("%w: failure time %g before tail %g", ErrColumnar, at, b.t.Failures[n-1])
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

// AppendErrorsTo bulk-decodes the trace's error rows straight into a
// columnar log — dictionary indices remapped once per distinct string,
// column cells copied, zero per-event Event materialization. It returns
// the number of error events appended. This closes the disk→memory loop:
// a PFC1 trace lands in the in-memory columnar store in the same layout
// it had on disk.
func (c *ColumnarTrace) AppendErrorsTo(l *eventlog.Log) (int, error) {
	nErr, _ := c.CountKinds()
	if nErr == 0 {
		return 0, nil
	}
	cols := eventlog.Columns{
		Times:    make([]float64, 0, nErr),
		Types:    make([]int32, 0, nErr),
		Sevs:     make([]uint8, 0, nErr),
		Comps:    make([]uint32, 0, nErr),
		Msgs:     make([]uint32, 0, nErr),
		CompDict: c.Components,
		MsgDict:  c.Messages,
	}
	for i, k := range c.Kinds {
		if EventKind(k) != KindError {
			continue
		}
		cols.Times = append(cols.Times, c.Times[i])
		cols.Types = append(cols.Types, c.Types[i])
		cols.Sevs = append(cols.Sevs, c.Sevs[i])
		cols.Comps = append(cols.Comps, c.Keys[i])
		cols.Msgs = append(cols.Msgs, c.Msgs[i])
	}
	if err := l.AppendColumns(cols); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrColumnar, err)
	}
	return nErr, nil
}

// WriteTo serializes the trace in the PFC1 binary layout: a magic tag,
// the three string dictionaries (uvarint count, then uvarint length +
// bytes per string), the event count, the seven per-event columns as
// contiguous fixed-width little-endian blocks, and the failure times.
// Column-contiguous fixed-width blocks are the point: the reader gets
// each column back with one ReadFull and a branch-free decode loop.
func (c *ColumnarTrace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(p []byte) error {
		_, err := cw.Write(p)
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	uv := func(v uint64) error {
		return write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	if err := write(columnarMagic[:]); err != nil {
		return cw.n, err
	}
	for _, dict := range [][]string{c.Vars, c.Components, c.Messages} {
		if err := uv(uint64(len(dict))); err != nil {
			return cw.n, err
		}
		for _, s := range dict {
			if err := uv(uint64(len(s))); err != nil {
				return cw.n, err
			}
			if err := write([]byte(s)); err != nil {
				return cw.n, err
			}
		}
	}
	if err := uv(uint64(c.Len())); err != nil {
		return cw.n, err
	}
	var b8 [8]byte
	for _, t := range c.Times {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(t))
		if err := write(b8[:]); err != nil {
			return cw.n, err
		}
	}
	if err := write(c.Kinds); err != nil {
		return cw.n, err
	}
	for _, k := range c.Keys {
		binary.LittleEndian.PutUint32(b8[:4], k)
		if err := write(b8[:4]); err != nil {
			return cw.n, err
		}
	}
	for _, t := range c.Types {
		binary.LittleEndian.PutUint32(b8[:4], uint32(t))
		if err := write(b8[:4]); err != nil {
			return cw.n, err
		}
	}
	if err := write(c.Sevs); err != nil {
		return cw.n, err
	}
	for _, m := range c.Msgs {
		binary.LittleEndian.PutUint32(b8[:4], m)
		if err := write(b8[:4]); err != nil {
			return cw.n, err
		}
	}
	for _, v := range c.Values {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		if err := write(b8[:]); err != nil {
			return cw.n, err
		}
	}
	if err := uv(uint64(len(c.Failures))); err != nil {
		return cw.n, err
	}
	for _, f := range c.Failures {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(f))
		if err := write(b8[:]); err != nil {
			return cw.n, err
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadColumnar deserializes and validates a PFC1 trace: magic, bounds of
// every dictionary index, kind and severity codes, and time ordering.
// A trace it returns is safe to drive through Event without checks.
func ReadColumnar(r io.Reader) (*ColumnarTrace, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrColumnar, err)
	}
	if magic != columnarMagic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrColumnar, magic[:], columnarMagic[:])
	}
	readDict := func(name string) ([]string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s count: %v", ErrColumnar, name, err)
		}
		if n > maxColumnarStrings {
			return nil, fmt.Errorf("%w: %s dictionary too large (%d)", ErrColumnar, name, n)
		}
		dict := make([]string, 0, min(n, 1<<10))
		for i := 0; uint64(i) < n; i++ {
			l, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: %s[%d] length: %v", ErrColumnar, name, i, err)
			}
			if l > maxColumnarStrLen {
				return nil, fmt.Errorf("%w: %s[%d] too long (%d)", ErrColumnar, name, i, l)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("%w: %s[%d]: %v", ErrColumnar, name, i, err)
			}
			dict = append(dict, string(buf))
		}
		return dict, nil
	}
	c := &ColumnarTrace{}
	var err error
	if c.Vars, err = readDict("vars"); err != nil {
		return nil, err
	}
	if c.Components, err = readDict("components"); err != nil {
		return nil, err
	}
	if c.Messages, err = readDict("messages"); err != nil {
		return nil, err
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: event count: %v", ErrColumnar, err)
	}
	if n64 > maxColumnarEvents {
		return nil, fmt.Errorf("%w: event count too large (%d)", ErrColumnar, n64)
	}
	n := int(n64)
	if c.Times, err = readF64s(br, n); err != nil {
		return nil, fmt.Errorf("%w: times column: %v", ErrColumnar, err)
	}
	// With the times in, the input has proved itself n×8 bytes long; no
	// later column is wider, so each is allocated whole, arrives with a
	// single ReadFull into one scratch block and decodes in a tight loop
	// over the raw bytes.
	block := make([]byte, n*8)
	readU32s := func(name string) ([]uint32, error) {
		if _, err := io.ReadFull(br, block[:n*4]); err != nil {
			return nil, fmt.Errorf("%w: %s column: %v", ErrColumnar, name, err)
		}
		out := make([]uint32, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(block[i*4:])
		}
		return out, nil
	}
	readU8s := func(name string) ([]uint8, error) {
		out := make([]uint8, n)
		if _, err := io.ReadFull(br, out); err != nil {
			return nil, fmt.Errorf("%w: %s column: %v", ErrColumnar, name, err)
		}
		return out, nil
	}
	if c.Kinds, err = readU8s("kinds"); err != nil {
		return nil, err
	}
	if c.Keys, err = readU32s("keys"); err != nil {
		return nil, err
	}
	types, err := readU32s("types")
	if err != nil {
		return nil, err
	}
	c.Types = make([]int32, n)
	for i, t := range types {
		c.Types[i] = int32(t)
	}
	if c.Sevs, err = readU8s("sevs"); err != nil {
		return nil, err
	}
	if c.Msgs, err = readU32s("msgs"); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, block); err != nil {
		return nil, fmt.Errorf("%w: values column: %v", ErrColumnar, err)
	}
	c.Values = make([]float64, n)
	for i := range c.Values {
		c.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(block[i*8:]))
	}
	nf, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: failure count: %v", ErrColumnar, err)
	}
	if nf > maxColumnarEvents {
		return nil, fmt.Errorf("%w: failure count too large (%d)", ErrColumnar, nf)
	}
	if c.Failures, err = readF64s(br, int(nf)); err != nil {
		return nil, fmt.Errorf("%w: failures: %v", ErrColumnar, err)
	}
	return c, c.validate()
}

// validate cross-checks the decoded columns so Event never indexes out of
// a dictionary or hands the mirror an event its Append would reject.
func (c *ColumnarTrace) validate() error {
	n := c.Len()
	for _, col := range []struct {
		name string
		l    int
	}{
		{"kinds", len(c.Kinds)}, {"keys", len(c.Keys)}, {"types", len(c.Types)},
		{"sevs", len(c.Sevs)}, {"msgs", len(c.Msgs)}, {"values", len(c.Values)},
	} {
		if col.l != n {
			return fmt.Errorf("%w: %s column length %d != %d events", ErrColumnar, col.name, col.l, n)
		}
	}
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		t := c.Times[i]
		if math.IsNaN(t) || t < prev {
			return fmt.Errorf("%w: event %d time %g out of order", ErrColumnar, i, t)
		}
		prev = t
		switch EventKind(c.Kinds[i]) {
		case KindError:
			if int(c.Keys[i]) >= len(c.Components) {
				return fmt.Errorf("%w: event %d component index %d out of range", ErrColumnar, i, c.Keys[i])
			}
			if int(c.Msgs[i]) >= len(c.Messages) {
				return fmt.Errorf("%w: event %d message index %d out of range", ErrColumnar, i, c.Msgs[i])
			}
			if s := eventlog.Severity(c.Sevs[i]); s < eventlog.SeverityInfo || s > eventlog.SeverityCritical {
				return fmt.Errorf("%w: event %d severity %d", ErrColumnar, i, c.Sevs[i])
			}
		case KindSample:
			if int(c.Keys[i]) >= len(c.Vars) {
				return fmt.Errorf("%w: event %d variable index %d out of range", ErrColumnar, i, c.Keys[i])
			}
		default:
			return fmt.Errorf("%w: event %d kind %d", ErrColumnar, i, c.Kinds[i])
		}
	}
	prev = math.Inf(-1)
	for i, f := range c.Failures {
		if math.IsNaN(f) || f < prev {
			return fmt.Errorf("%w: failure %d time %g out of order", ErrColumnar, i, f)
		}
		prev = f
	}
	return nil
}
